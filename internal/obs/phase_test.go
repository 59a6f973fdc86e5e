package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// endOp closes one op with a synthetic start/duration.
func endOp(p *Probe, c OpClass, dur int64) {
	start := Now() - dur
	p.OpEnd(c, start, dur)
}

func TestProbeSamplingCadence(t *testing.T) {
	d := NewDeep(DeepConfig{SampleEvery: 4, TraceBuf: 1024})
	p := d.Probe()
	const ops = 100
	for i := 0; i < ops; i++ {
		p.OpBegin()
		if p.Active() {
			t0 := Now()
			p.Span(PhaseDescend, t0, 0)
		}
		endOp(p, OpRead, 10)
	}
	traces := d.Traces()
	if want := ops / 4; len(traces) != want {
		t.Fatalf("sampled %d traces out of %d ops at 1-in-4, want %d", len(traces), ops, want)
	}
	for i, tr := range traces {
		if tr.Class != OpRead || tr.NSpans != 1 || tr.Spans[0].Phase != PhaseDescend {
			t.Fatalf("trace %d = %+v, want one descend span on a read", i, tr)
		}
	}
	// Destructive drain: a second call returns nothing.
	if again := d.Traces(); len(again) != 0 {
		t.Fatalf("second drain returned %d traces, want 0", len(again))
	}
}

func TestProbeNilReceiver(t *testing.T) {
	var p *Probe
	// Every probe entry point must be a no-op on the disabled (nil) path.
	p.OpBegin()
	p.NoteChain(3)
	p.NoteCASFail()
	p.NoteAbort()
	p.OpEnd(OpInsert, 0, 0)
	p.Emit(EvSplit, 1, 0, 0)
	if p.Active() || p.RecordsOps() {
		t.Fatal("nil probe reports Active or RecordsOps")
	}
	// A nil Deep is the tree with every trace option off.
	var d *Deep
	if d.Probe() != nil || d.Events() != nil || d.Traces() != nil || d.Flight(0) != nil ||
		d.EventsDropped() != 0 || d.TracesDropped() != 0 || d.Anomalies() != 0 {
		t.Fatal("nil Deep returned a handle or records")
	}
	d.Release(nil)
	d.SetAnomalySink(nil)
	d.Note("ignored")
}

func TestEventsOnlyHandleRecordsNoOps(t *testing.T) {
	d := NewDeep(DeepConfig{EventBuf: 8})
	var dumps atomic.Int64
	d.SetAnomalySink(func(string, []OpSummary) { dumps.Add(1) })
	p := d.Probe()
	if p.RecordsOps() {
		t.Fatal("events-only handle reports RecordsOps")
	}
	p.OpBegin()
	p.NoteChain(40)
	p.Emit(EvSplit, 1, 0, 0)
	endOp(p, OpInsert, 10)
	d.Note("recovery start")
	if evs := d.Events(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("events = %+v, want one with seq 1", evs)
	}
	if depth := d.ChainDepths(); depth.Total() != 0 || dumps.Load() != 0 || d.Traces() != nil || d.Flight(0) != nil {
		t.Fatal("events-only handle recorded an operation")
	}
}

func TestProbeNesting(t *testing.T) {
	d := NewDeep(DeepConfig{SampleEvery: 1, TraceBuf: 64, FlightBuf: 64})
	p := d.Probe()
	// A durable commit wraps the in-memory apply: two OpBegins, two
	// OpEnds, but only the outermost finalizes (one trace, one flight
	// entry, the outer class).
	p.OpBegin()
	p.OpBegin()
	p.NoteChain(5)
	endOp(p, OpRead, 1) // inner end: must not finalize
	endOp(p, OpUpdate, 100)
	traces := d.Traces()
	if len(traces) != 1 {
		t.Fatalf("nested op produced %d traces, want 1", len(traces))
	}
	if traces[0].Class != OpUpdate || traces[0].ChainLen != 5 {
		t.Fatalf("outermost trace = %+v, want update with chain 5", traces[0])
	}
	fl := d.Flight(0)
	if len(fl) != 1 || fl[0].Class != OpUpdate {
		t.Fatalf("flight = %+v, want one update entry", fl)
	}
}

func TestTraceRingWrapCountsDropped(t *testing.T) {
	d := NewDeep(DeepConfig{SampleEvery: 1, TraceBuf: 8})
	p := d.Probe()
	const ops = 20
	for i := 0; i < ops; i++ {
		p.OpBegin()
		endOp(p, OpInsert, int64(i))
	}
	if got := d.TracesDropped(); got != ops-8 {
		t.Fatalf("TracesDropped = %d, want %d", got, ops-8)
	}
	traces := d.Traces()
	if len(traces) != 8 {
		t.Fatalf("drained %d traces from an 8-slot ring, want 8", len(traces))
	}
	// The ring keeps the newest ops and the drain sorts by Seq.
	for i := 1; i < len(traces); i++ {
		if traces[i].Seq <= traces[i-1].Seq {
			t.Fatalf("drain not Seq-sorted: %d after %d", traces[i].Seq, traces[i-1].Seq)
		}
	}
	if traces[len(traces)-1].Seq != ops {
		t.Fatalf("newest trace Seq = %d, want %d", traces[len(traces)-1].Seq, ops)
	}
}

func TestFlightRingKeepsNewest(t *testing.T) {
	d := NewDeep(DeepConfig{FlightBuf: 4})
	p := d.Probe()
	for i := 0; i < 10; i++ {
		p.OpBegin()
		endOp(p, OpDelete, int64(i))
	}
	fl := d.Flight(0)
	if len(fl) != 4 {
		t.Fatalf("flight holds %d entries, want 4", len(fl))
	}
	if fl[0].Seq != 7 || fl[3].Seq != 10 {
		t.Fatalf("flight seqs = [%d..%d], want [7..10]", fl[0].Seq, fl[3].Seq)
	}
	// Tail request trims from the front; the copy is non-destructive.
	if tail := d.Flight(2); len(tail) != 2 || tail[1].Seq != 10 {
		t.Fatalf("Flight(2) = %+v, want the two newest", tail)
	}
	if again := d.Flight(0); len(again) != 4 {
		t.Fatalf("flight drained by read: %d entries left", len(again))
	}
}

func TestAnomalyRateLimitAndNoteBypass(t *testing.T) {
	d := NewDeep(DeepConfig{FlightBuf: 16, ChainAnomaly: 8})
	var dumps atomic.Int64
	d.SetAnomalySink(func(reason string, recent []OpSummary) {
		dumps.Add(1)
	})
	p := d.Probe()
	// A storm of ops past the chain trigger raises many anomalies but
	// at most one dump per rate-limit window.
	for i := 0; i < 50; i++ {
		p.OpBegin()
		p.NoteChain(9)
		endOp(p, OpScan, 5000)
	}
	if got := d.Anomalies(); got != 50 {
		t.Fatalf("Anomalies = %d, want 50", got)
	}
	if got := dumps.Load(); got != 1 {
		t.Fatalf("sink ran %d times during the storm, want 1 (rate-limited)", got)
	}
	// Note bypasses the limit even immediately after a dump.
	d.Note("recovery start")
	d.Note("second note")
	if got := dumps.Load(); got != 3 {
		t.Fatalf("sink ran %d times after two Notes, want 3", got)
	}
}

func TestAnomalyChainTrigger(t *testing.T) {
	d := NewDeep(DeepConfig{FlightBuf: 8, ChainAnomaly: 16})
	var reason atomic.Pointer[string]
	d.SetAnomalySink(func(r string, recent []OpSummary) { reason.Store(&r) })
	p := d.Probe()
	p.OpBegin()
	p.NoteChain(40)
	endOp(p, OpInsert, 10)
	r := reason.Load()
	if r == nil || !strings.Contains(*r, "chain depth 40") {
		t.Fatalf("chain anomaly reason = %v, want mention of chain depth 40", r)
	}
}

func TestProbeReusePreservesTraces(t *testing.T) {
	d := NewDeep(DeepConfig{EventBuf: 16, SampleEvery: 1, TraceBuf: 64, FlightBuf: 8})
	p := d.Probe()
	p.OpBegin()
	p.Emit(EvAbort, 1, 0, 0)
	endOp(p, OpInsert, 10)
	d.Release(p)
	// Undrained records of every kind must survive release and reuse.
	p2 := d.Probe()
	if p2 != p {
		t.Fatal("released probe not reused")
	}
	p2.Emit(EvAbort, 2, 0, 0)
	if events := d.Events(); len(events) != 2 {
		t.Fatalf("undrained event lost across release/reuse: got %d, want 2", len(events))
	}
	if traces := d.Traces(); len(traces) != 1 {
		t.Fatalf("undrained trace lost across release/reuse: got %d", len(traces))
	}
	if fl := d.Flight(0); len(fl) != 1 {
		t.Fatalf("flight entry lost across release/reuse: got %d", len(fl))
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	d := NewDeep(DeepConfig{SampleEvery: 1, TraceBuf: 64})
	p := d.Probe()
	p.OpBegin()
	if p.Active() {
		t0 := Now() - int64(2*time.Microsecond)
		p.Span(PhaseChainWalk, t0, 7)
		p.Span(PhaseCAS, Now()-int64(time.Microsecond), 1)
	}
	p.NoteChain(7)
	p.NoteCASFail()
	endOp(p, OpUpdate, int64(5*time.Microsecond))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, d.Traces()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	var sawOp, sawWalk, sawCAS bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "update":
			sawOp = true
			if e.Args["chain_len"] != float64(7) || e.Args["cas_retries"] != float64(1) {
				t.Fatalf("op args = %v, want chain_len 7 and cas_retries 1", e.Args)
			}
		case e.Ph == "X" && e.Name == "chain-walk":
			sawWalk = true
		case e.Ph == "X" && e.Name == "cas":
			sawCAS = true
		}
	}
	if !sawOp || !sawWalk || !sawCAS {
		t.Fatalf("missing events: op=%v walk=%v cas=%v\n%s", sawOp, sawWalk, sawCAS, buf.Bytes())
	}
}

func TestOpSummaryJSONRoundTrip(t *testing.T) {
	in := OpSummary{Seq: 9, Class: OpScan, Start: 100, Dur: 200, ChainLen: 3}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out OpSummary
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	var hist Histogram
	for i := int64(1); i <= 1000; i++ {
		hist.RecordNS(i * 1000)
	}
	var snap HistSnapshot
	hist.AddTo(&snap)
	var buf bytes.Buffer
	WritePrometheus(&buf, Vars{
		Counters:    func() map[string]uint64 { return map[string]uint64{"ops": 123} },
		Gauges:      func() map[string]float64 { return map[string]float64{"epoch_lag": 2} },
		MetricHists: func() []HistFeed { return []HistFeed{{Name: "bwtree_chain_depth", Help: "test", Snap: snap}} },
	})
	n, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("own output failed validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no samples parsed")
	}
	for _, want := range []string{"bwtree_ops_total 123", "bwtree_epoch_lag 2", "bwtree_chain_depth_count 1000"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}
