package obs

import (
	"sync"
	"testing"
)

func TestEventsOrderedDrain(t *testing.T) {
	d := newDeep(64, 1000, 0)
	p1, p2 := d.Probe(), d.Probe()
	// Interleave emissions across two handles.
	for i := uint64(0); i < 10; i++ {
		p1.Emit(EvSplit, i, 0, 0)
		p2.Emit(EvMerge, i, 0, 0)
	}
	events := d.Events()
	if len(events) != 20 {
		t.Fatalf("drained %d events, want 20", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("drain not ordered: seq %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if again := d.Events(); len(again) != 0 {
		t.Fatalf("second drain returned %d events, want 0", len(again))
	}
}

func TestEventsWraparound(t *testing.T) {
	d := newDeep(8, 1000, 0)
	p := d.Probe()
	for i := uint64(0); i < 20; i++ {
		p.Emit(EvConsolidate, i, 0, 0)
	}
	events := d.Events()
	if len(events) != 8 {
		t.Fatalf("drained %d events, want ring size 8", len(events))
	}
	// The survivors must be the newest 8, oldest first.
	for i, ev := range events {
		if want := uint64(12 + i); ev.Node != want {
			t.Fatalf("event %d: node %d, want %d", i, ev.Node, want)
		}
	}
	if got := d.EventsDropped(); got != 12 {
		t.Fatalf("EventsDropped = %d, want 12", got)
	}
}

// TestConcurrentEmitAndDrain runs sessions that emit events and record
// sampled, flight-recorded ops while another goroutine drains and
// copies every ring. Under -race it checks the rings' locking; the
// accounting checks that every record was either drained once or
// counted as dropped.
func TestConcurrentEmitAndDrain(t *testing.T) {
	d := newDeep(16, 2, 0)
	const workers = 4
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := d.Probe()
			for i := 0; i < perWorker; i++ {
				p.OpBegin()
				p.Emit(EvSplit, uint64(w), uint64(i), 0)
				endOp(p, OpInsert, 10)
			}
		}(w)
	}
	var events, traces int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			events += len(d.Events())
			traces += len(d.Traces())
			_ = d.Flight(0)
		}
	}()
	wg.Wait()
	<-done
	rest := d.Events()
	for i := 1; i < len(rest); i++ {
		if rest[i].Seq <= rest[i-1].Seq {
			t.Fatalf("unordered drain under concurrency")
		}
	}
	events += len(rest)
	traces += len(d.Traces())
	if got := uint64(events) + d.EventsDropped(); got != workers*perWorker {
		t.Fatalf("events drained + dropped = %d, want %d", got, workers*perWorker)
	}
	if got := uint64(traces) + d.TracesDropped(); got != workers*perWorker/2 {
		t.Fatalf("traces drained + dropped = %d, want %d", got, workers*perWorker/2)
	}
}

// TestOneSeqAcrossKinds checks that events, sampled traces and flight
// entries draw from one counter: within one session's op the event comes
// first, and no two records of any kind share a Seq.
func TestOneSeqAcrossKinds(t *testing.T) {
	d := newDeep(64, 1, 0)
	p := d.Probe()
	for i := 0; i < 10; i++ {
		p.OpBegin()
		p.Emit(EvConsolidate, uint64(i), 0, 0)
		endOp(p, OpUpdate, 10)
	}
	events, traces, flight := d.Events(), d.Traces(), d.Flight(0)
	if len(events) != 10 || len(traces) != 10 || len(flight) != 10 {
		t.Fatalf("got %d events, %d traces, %d flight entries; want 10 each",
			len(events), len(traces), len(flight))
	}
	seen := map[uint64]bool{}
	for i := range events {
		for _, seq := range []uint64{events[i].Seq, flight[i].Seq, traces[i].Seq} {
			if seen[seq] {
				t.Fatalf("seq %d used twice", seq)
			}
			seen[seq] = true
		}
		if events[i].Seq >= flight[i].Seq {
			t.Fatalf("op %d: event seq %d not before its op's flight seq %d", i, events[i].Seq, flight[i].Seq)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EvSplit.String() != "split" || EvAbort.String() != "abort" {
		t.Fatal("unexpected kind names")
	}
	b, err := EvMerge.MarshalJSON()
	if err != nil || string(b) != `"merge"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}
