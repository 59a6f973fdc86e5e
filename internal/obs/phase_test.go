package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
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
	d := newDeep(1024, 4, 0)
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
	p.Latency(OpRead, 1)
	if p.Active() {
		t.Fatal("nil probe reports Active")
	}
	// A nil Deep is the tree with tracing off.
	var d *Deep
	if d.Probe() != nil || d.Events() != nil || d.Traces() != nil || d.Flight(0) != nil ||
		d.Latencies() != nil || d.EventsDropped() != 0 || d.TracesDropped() != 0 || d.Anomalies() != 0 {
		t.Fatal("nil Deep returned a handle or records")
	}
	d.SetAnomalySink(nil)
	d.Note("ignored")
}

// TestNewDeepFixedSizes checks the one configuration NewDeep builds:
// RingSize records per ring and one phase trace every SampleEvery ops.
func TestNewDeepFixedSizes(t *testing.T) {
	d := NewDeep(0)
	p := d.Probe()
	const ops = 2 * RingSize * SampleEvery
	for i := 0; i < ops; i++ {
		p.OpBegin()
		p.Emit(EvSplit, uint64(i), 0, 0)
		endOp(p, OpRead, 10)
	}
	if got := len(d.Events()); got != RingSize {
		t.Fatalf("event ring kept %d, want %d", got, RingSize)
	}
	if got := len(d.Flight(0)); got != RingSize {
		t.Fatalf("flight ring kept %d, want %d", got, RingSize)
	}
	if got, dropped := len(d.Traces()), d.TracesDropped(); got != RingSize || got+int(dropped) != ops/SampleEvery {
		t.Fatalf("trace ring kept %d and dropped %d of %d ops, want %d kept of 1 in %d",
			got, dropped, ops, RingSize, SampleEvery)
	}
}

// TestLatenciesMergeHandles checks that Latencies sums every sink (two
// handles pick two sinks) and that only Latency calls record: a nested
// op's OpEnd adds nothing.
func TestLatenciesMergeHandles(t *testing.T) {
	d := NewDeep(0)
	p1, p2 := d.Probe(), d.Probe()
	for i := 0; i < 10; i++ {
		p1.Latency(OpRead, 100)
		p2.Latency(OpInsert, 200)
	}
	p2.OpBegin()
	endOp(p2, OpInsert, 300)
	snap := d.Latencies()
	if r, w := snap.Class(OpRead).Total(), snap.Class(OpInsert).Total(); r != 10 || w != 10 {
		t.Fatalf("merged %d reads and %d inserts, want 10 and 10", r, w)
	}
}

func TestProbeNesting(t *testing.T) {
	d := newDeep(64, 1, 0)
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
	d := newDeep(8, 1, 0)
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
	// Each op draws its flight entry's Seq, then its trace's.
	if traces[len(traces)-1].Seq != 2*ops {
		t.Fatalf("newest trace Seq = %d, want %d", traces[len(traces)-1].Seq, 2*ops)
	}
}

func TestFlightRingKeepsNewest(t *testing.T) {
	d := newDeep(4, 1000, 0) // no op sampled: flight entries alone draw Seqs
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
	d := newDeep(16, 1000, 8)
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
	d := newDeep(8, 1000, 16)
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

// TestReleasedSessionRecordsStayDrainable: a handle needs no release,
// and what a session recorded before it went away stays in its sink
// until drained, next to what later sessions record.
func TestReleasedSessionRecordsStayDrainable(t *testing.T) {
	d := newDeep(16, 1, 0)
	p := d.Probe()
	p.OpBegin()
	p.Emit(EvAbort, 1, 0, 0)
	endOp(p, OpInsert, 10)
	// p's session is gone; its records stay in its sink.
	p2 := d.Probe()
	p2.Emit(EvAbort, 2, 0, 0)
	if events := d.Events(); len(events) != 2 {
		t.Fatalf("undrained event lost with its session: got %d, want 2", len(events))
	}
	if traces := d.Traces(); len(traces) != 1 {
		t.Fatalf("undrained trace lost with its session: got %d", len(traces))
	}
	if fl := d.Flight(0); len(fl) != 1 {
		t.Fatalf("flight entry lost with its session: got %d", len(fl))
	}
}

// TestSinksBoundedByCores: however many handles a Deep hands out, it
// builds at most 2×GOMAXPROCS sinks, round-robin and only on first use,
// and every handle gets a fresh session id as its trace tid.
func TestSinksBoundedByCores(t *testing.T) {
	d := newDeep(4, 1, 0)
	if got := built(d); got != 0 {
		t.Fatalf("new Deep built %d sinks, want 0", got)
	}
	p := d.Probe()
	if got := built(d); got != 1 {
		t.Fatalf("one handle built %d sinks, want 1", got)
	}
	limit := 2 * runtime.GOMAXPROCS(0)
	ids := map[int32]bool{p.id: true}
	for i := 0; i < 3*limit; i++ {
		q := d.Probe()
		if ids[q.id] {
			t.Fatalf("session id %d handed out twice", q.id)
		}
		ids[q.id] = true
		q.OpBegin()
		endOp(q, OpRead, 1)
	}
	if got := built(d); got != limit {
		t.Fatalf("%d handles built %d sinks, want %d", 3*limit+1, got, limit)
	}
	tids := map[int32]bool{}
	for _, tr := range d.Traces() {
		tids[tr.Worker] = true
	}
	if len(tids) != 3*limit {
		t.Fatalf("traces carry %d tids, want one per traced session (%d)", len(tids), 3*limit)
	}
}

// built counts d's sinks built so far.
func built(d *Deep) int {
	n := 0
	d.each(func(*sink) { n++ })
	return n
}

func TestChromeTraceRoundTrip(t *testing.T) {
	d := newDeep(64, 1, 0)
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
