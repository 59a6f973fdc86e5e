package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPointerChasesAfterChainedRead verifies the pointerChases counter is
// actually wired through the delta-chain walk: a lookup that traverses a
// non-empty chain must bump it.
func TestPointerChasesAfterChainedRead(t *testing.T) {
	opts := DefaultOptions()
	// Long chain limits so the deltas survive until we read them.
	opts.LeafChainLength = 64
	opts.InnerChainLength = 64
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	// Stack insert deltas on one leaf (the limits above defer
	// consolidation), then read the oldest key: the seek must walk past
	// every newer delta to reach it, chasing a pointer per hop.
	for i := uint64(0); i < 20; i++ {
		if !s.Insert(key64(i), i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if got := s.Lookup(key64(0), nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("lookup got %v, want [0]", got)
	}
	if st := tr.Stats(); st.PointerChases == 0 {
		t.Fatal("PointerChases = 0 after reading a chained leaf; counter not wired")
	}
}

// TestStatsConcurrentWithWrites calls Stats while writers are mutating
// counters. Under -race this fails if any counter is read non-atomically.
func TestStatsConcurrentWithWrites(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()

	const workers = 4
	const perWorker = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			base := uint64(w) * perWorker
			for i := uint64(0); i < perWorker; i++ {
				s.Insert(key64(base+i), i)
				s.Lookup(key64(base+i), nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			st := tr.Stats()
			_ = st.AbortRate()
		}
	}()
	wg.Wait()
	<-done

	st := tr.Stats()
	if want := uint64(workers * perWorker * 2); st.Ops != want {
		t.Fatalf("Ops = %d, want %d", st.Ops, want)
	}
	if st.PointerChases == 0 {
		t.Fatal("PointerChases = 0 after chained reads")
	}
}

// TestLatencyHistograms verifies the opt-in latency recorder: enabled
// trees report per-class counts and quantiles, disabled trees report nil.
func TestLatencyHistograms(t *testing.T) {
	opts := DefaultOptions()
	opts.LatencyHistograms = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()

	const n = 1000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	for i := uint64(0); i < n; i++ {
		s.Lookup(key64(i), nil)
	}
	s.Scan(key64(0), 100, func([]byte, uint64) bool { return true })

	// Live sessions must be visible...
	snap := tr.Latencies()
	if snap == nil {
		t.Fatal("Latencies() = nil with LatencyHistograms enabled")
	}
	if got := snap.Class(obs.OpInsert).Total(); got != n {
		t.Fatalf("insert latency count = %d, want %d", got, n)
	}
	if got := snap.Class(obs.OpRead).Total(); got != n {
		t.Fatalf("read latency count = %d, want %d", got, n)
	}
	if got := snap.Class(obs.OpScan).Total(); got != 1 {
		t.Fatalf("scan latency count = %d, want 1", got)
	}
	if p99 := snap.Class(obs.OpRead).Quantile(0.99); p99 <= 0 {
		t.Fatalf("read p99 = %v, want > 0", p99)
	}

	// ...and released sessions must fold into the closed snapshot.
	s.Release()
	snap = tr.Latencies()
	if got := snap.Total(); got != 2*n+1 {
		t.Fatalf("total after release = %d, want %d", got, 2*n+1)
	}
	sum := snap.Summary()
	if _, ok := sum["insert"]; !ok {
		t.Fatal("summary missing insert class")
	}

	// Disabled by default: nil snapshot, near-zero overhead path.
	tr2 := New(DefaultOptions())
	defer tr2.Close()
	if tr2.Latencies() != nil {
		t.Fatal("Latencies() non-nil with histograms disabled")
	}
}

// TestTraceEvents churns a tiny-node tree so SMOs fire, then checks the
// drained stream is ordered and contains the structural kinds, and that
// events, phase traces and flight entries draw Seq from one counter.
func TestTraceEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 4
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.TraceRingSize = 4096
	opts.PhaseSampleEvery = 1
	opts.FlightRecorderSize = 64
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	for i := uint64(0); i < 2000; i++ {
		s.Insert(key64(i), i)
	}

	events := tr.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no trace events after SMO churn")
	}
	kinds := map[obs.EventKind]int{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("trace not ordered: seq %d after %d", ev.Seq, events[i-1].Seq)
		}
	}
	if kinds[obs.EvSplit] == 0 {
		t.Fatal("no split events despite tiny nodes")
	}
	if kinds[obs.EvConsolidate] == 0 {
		t.Fatal("no consolidate events despite short chains")
	}

	traces, flight := tr.PhaseTraces(), tr.FlightRecent(0)
	if deepProbes && (len(traces) == 0 || len(flight) == 0) {
		t.Fatalf("%d phase traces and %d flight entries with every op sampled", len(traces), len(flight))
	}
	// Each stream strictly increases, and no Seq appears in two records.
	seen := map[uint64]bool{}
	last := map[string]uint64{}
	note := func(kind string, seq uint64) {
		if seq <= last[kind] || seen[seq] {
			t.Fatalf("%s seq %d: previous %s seq %d, reused %v", kind, seq, kind, last[kind], seen[seq])
		}
		last[kind], seen[seq] = seq, true
	}
	for _, ev := range events {
		note("event", ev.Seq)
	}
	for _, tc := range traces {
		note("trace", tc.Seq)
	}
	for _, f := range flight {
		note("flight", f.Seq)
	}

	// Disabled by default.
	tr2 := New(DefaultOptions())
	defer tr2.Close()
	if tr2.TraceEvents() != nil {
		t.Fatal("TraceEvents non-nil with tracing disabled")
	}
}

// TestIdleTreeEmitsNoEvents checks that the trace carries only what
// operations did: a tree nobody touches records nothing, however many
// epochs its GC goroutine advances in the background.
func TestIdleTreeEmitsNoEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceRingSize = 64
	opts.GCInterval = time.Millisecond
	tr := New(opts)
	defer tr.Close()
	time.Sleep(50 * opts.GCInterval)
	if tr.Stats().GC.Advances == 0 {
		t.Fatal("GC never advanced; the test would prove nothing")
	}
	if evs := tr.TraceEvents(); len(evs) != 0 {
		t.Fatalf("idle tree traced %d events, want 0; first: %+v", len(evs), evs[0])
	}
}
