package obs

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the trace pipeline: one Deep per tree, one small Probe
// handle per session, and at most 2×GOMAXPROCS sinks per Deep, so its
// memory is bounded by cores, not by sessions. Sessions share sinks
// round-robin; a sink is built the first time a session picks it. Each
// sink keeps per-class latency histograms, the leaf-chain-depth
// histogram, and three rings of the same generic type (ring.go), each
// RingSize records long:
//
//   - events: structural modifications (split, merge, consolidate,
//     abort), drained destructively by /debug/trace;
//   - traces: full phase breakdowns of sampled operations (1 in
//     SampleEvery per session), drained destructively for Chrome-trace
//     export;
//   - flight: compact summaries of *every* completed operation, kept for
//     post-hoc inspection and dumped automatically on anomaly.
//
// Every record draws its Seq from the Deep's one counter, so merging any
// of the three streams across sinks, or all three together, restores
// the tree-wide order in which the records were written.
//
// The recording discipline matches the package contract: with tracing
// off the tree holds no Deep at all, every session's handle is nil, and
// every probe call is a single nil check. When enabled, the per-op state
// (span array, counters) is owner-private plain memory in the handle;
// the only shared work per record is one sequence fetch plus one short
// mutex section to publish it into the sink's ring, contended only by
// the sessions sharing that sink and by dump endpoints copying records.

// Phase enumerates the hot-path segments a sampled operation is broken
// into. The Arg a span carries is phase-specific (see the constants).
type Phase uint8

const (
	// PhaseDescend: root-to-leaf traversal — mapping-table lookups plus
	// inner-chain routing. Arg is unused.
	PhaseDescend Phase = iota
	// PhaseChainWalk: leaf delta-chain replay. Arg is the observed chain
	// depth (delta records above the base node).
	PhaseChainWalk
	// PhaseBaseSearch: binary search over the base node. Arg is the
	// search-window width in items (narrowed by offset shortcuts).
	PhaseBaseSearch
	// PhaseCAS: one mapping-table publish attempt. Arg is 0 when the CaS
	// won, 1 when it lost and the operation will retry.
	PhaseCAS
	// PhaseConsolidate: consolidation work stolen by this operation
	// (folding a chain it found over threshold). Arg is the chain depth
	// folded.
	PhaseConsolidate
	// PhaseWALAppend: appending the logical redo record (durable trees).
	// Arg is the assigned LSN.
	PhaseWALAppend
	// PhaseFsyncWait: blocking on the group-commit fsync (durable trees
	// with SyncOnCommit). Arg is the LSN waited for.
	PhaseFsyncWait
	// NumPhases bounds arrays indexed by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"descend", "chain-walk", "base-search", "cas", "consolidate",
	"wal-append", "fsync-wait",
}

// String returns the phase's report name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one timed phase inside a sampled operation.
type Span struct {
	Phase Phase
	Start int64 // obs.Now at phase start
	Dur   int64
	Arg   uint64
}

// MaxOpSpans bounds the spans recorded per sampled operation; an op that
// retries past the cap keeps its counters exact but drops further spans.
const MaxOpSpans = 16

// OpTrace is one sampled operation's phase breakdown. Spans[:NSpans] are
// valid; the array is fixed-size so recording never allocates.
type OpTrace struct {
	Seq        uint64
	Class      OpClass
	Worker     int32 // session id, the Chrome-trace tid
	Start      int64
	Dur        int64
	ChainLen   uint32 // deepest leaf chain observed
	CASRetries uint32 // mapping-table publish attempts that lost
	Aborts     uint32 // traversal restarts
	NSpans     int32
	Spans      [MaxOpSpans]Span
}

// OpSummary is one flight-recorder entry: the compact always-on record
// of a completed operation.
type OpSummary struct {
	Seq        uint64  `json:"seq"`
	Class      OpClass `json:"class"`
	Start      int64   `json:"start_ns"`
	Dur        int64   `json:"dur_ns"`
	ChainLen   uint32  `json:"chain_len"`
	CASRetries uint32  `json:"cas_retries"`
	Aborts     uint32  `json:"aborts"`
}

// AnomalySink receives automatic flight-recorder dumps: a one-line
// reason and the most recent op summaries (oldest first) of the
// dumping session's sink, so they include the ops of the sessions
// sharing that sink.
type AnomalySink func(reason string, recent []OpSummary)

// RingSize is the capacity of each of a sink's three rings (events,
// sampled traces, flight entries), and SampleEvery the period, in outermost
// operations per session, of the full phase trace. Seven is coprime to
// short workload cycles (bwtree-cli's is four ops), so every op class
// gets sampled.
const (
	RingSize    = 256
	SampleEvery = 7
)

// Deep owns one tree's trace pipeline: the sinks, the one sequence
// counter, the drop counts and the anomaly sink. A nil *Deep is the tree
// with tracing off: its accessors return empty results and its Probe
// returns a nil handle.
type Deep struct {
	size         int    // capacity of each ring of a sink
	every        uint64 // phase-sample every Nth outermost op per handle
	chainAnomaly uint32 // dump when an op sees a deeper leaf chain; 0 never

	seq           atomic.Uint64
	sessions      atomic.Uint64 // handles handed out; the newest one's id
	eventsDropped atomic.Uint64 // events lost to ring wraparound
	tracesDropped atomic.Uint64 // sampled traces lost to ring wraparound
	anomalies     atomic.Uint64 // anomaly triggers (dumped or rate-limited)
	lastDump      atomic.Int64  // obs.Now of the last anomaly dump
	onAnomaly     atomic.Pointer[AnomalySink]

	// sinks is fixed at 2×GOMAXPROCS slots when the Deep is built; a
	// slot's sink is built the first time a handle picks it.
	sinks []atomic.Pointer[sink]
}

// sink is the record store a handle writes into, shared round-robin by
// every session whose id maps to its slot: the chain-depth and latency
// histograms (atomic adds) and the three rings (each push under the
// ring's mutex). Sharing therefore needs no synchronisation of its own.
type sink struct {
	depth Histogram
	lat   Recorder

	events ring[Event]
	traces ring[OpTrace]
	flight ring[OpSummary]
}

// NewDeep returns a trace pipeline with RingSize rings and 1-in-SampleEvery
// phase sampling. An op that observes a leaf chain deeper than
// chainAnomaly dumps the flight recorder (the consolidation trigger is
// the natural setting); 0 disables the chain trigger.
func NewDeep(chainAnomaly int) *Deep { return newDeep(RingSize, SampleEvery, chainAnomaly) }

// newDeep is NewDeep with the ring capacity and sampling period chosen,
// so tests can wrap small rings.
func newDeep(size, every, chainAnomaly int) *Deep {
	return &Deep{
		size: size, every: uint64(every), chainAnomaly: uint32(max(chainAnomaly, 0)),
		sinks: make([]atomic.Pointer[sink], 2*runtime.GOMAXPROCS(0)),
	}
}

// SetAnomalySink replaces the automatic-dump destination. A nil sink
// restores the default, which logs a compact rendering to stderr.
func (d *Deep) SetAnomalySink(fn AnomalySink) {
	switch {
	case d == nil:
	case fn == nil:
		d.onAnomaly.Store(nil)
	default:
		d.onAnomaly.Store(&fn)
	}
}

// Probe returns a new handle for one session, with the next session id,
// writing into the next sink in round-robin order. The handle is the
// session's alone and needs no release: its records live in the sink.
func (d *Deep) Probe() *Probe {
	if d == nil {
		return nil
	}
	id := d.sessions.Add(1)
	slot := &d.sinks[(id-1)%uint64(len(d.sinks))]
	s := slot.Load()
	if s == nil {
		s = &sink{}
		s.events.buf = make([]Event, d.size)
		s.traces.buf = make([]OpTrace, d.size)
		s.flight.buf = make([]OpSummary, d.size)
		if !slot.CompareAndSwap(nil, s) {
			s = slot.Load()
		}
	}
	return &Probe{d: d, s: s, id: int32(id)}
}

// each calls fn on every sink built so far.
func (d *Deep) each(fn func(*sink)) {
	if d == nil {
		return
	}
	for i := range d.sinks {
		if s := d.sinks[i].Load(); s != nil {
			fn(s)
		}
	}
}

// Events drains every sink's structural events into one stream sorted
// by sequence number. Destructive: each event is returned once.
func (d *Deep) Events() []Event {
	var out []Event
	d.each(func(s *sink) { out = s.events.drain(out) })
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventsDropped returns how many events were lost to ring wraparound
// before they could be drained.
func (d *Deep) EventsDropped() uint64 {
	if d == nil {
		return 0
	}
	return d.eventsDropped.Load()
}

// Traces drains every sink's sampled phase traces into one stream
// sorted by sequence number. Destructive: each trace is returned once.
func (d *Deep) Traces() []OpTrace {
	var out []OpTrace
	d.each(func(s *sink) { out = s.traces.drain(out) })
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TracesDropped returns how many sampled traces were lost to ring
// wraparound before they could be drained.
func (d *Deep) TracesDropped() uint64 {
	if d == nil {
		return 0
	}
	return d.tracesDropped.Load()
}

// Flight returns the newest n flight-recorder entries across every
// sink (all entries when n <= 0), oldest first. Non-destructive.
func (d *Deep) Flight(n int) []OpSummary {
	var out []OpSummary
	d.each(func(s *sink) { out = s.flight.peek(out) })
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if n > 0 && n < len(out) {
		out = out[len(out)-n:]
	}
	return out
}

// Anomalies returns the cumulative anomaly-trigger count (including
// triggers suppressed by the dump rate limit).
func (d *Deep) Anomalies() uint64 {
	if d == nil {
		return 0
	}
	return d.anomalies.Load()
}

// ChainDepths merges every sink's observed leaf-chain-depth histogram.
func (d *Deep) ChainDepths() HistSnapshot {
	var s HistSnapshot
	d.each(func(k *sink) { k.depth.AddTo(&s) })
	return s
}

// Latencies merges every sink's per-class latency histograms, and so
// every session's, live and released, into one snapshot; nil for a nil
// Deep.
func (d *Deep) Latencies() *LatencySnapshot {
	if d == nil {
		return nil
	}
	snap := &LatencySnapshot{}
	d.each(func(s *sink) { s.lat.AddTo(snap) })
	return snap
}

// Note pushes an out-of-band event (e.g. recovery start) through the
// anomaly sink, bypassing the rate limit, with the current tree-wide
// flight tail attached.
func (d *Deep) Note(reason string) {
	if d == nil {
		return
	}
	d.anomalies.Add(1)
	d.lastDump.Store(Now())
	d.dump(reason, d.Flight(64))
}

// anomalyDumpGap is the minimum spacing between automatic dumps, so an
// anomaly storm (every op past the trigger) degrades to one dump a second
// instead of a stderr flood.
const anomalyDumpGap = int64(time.Second)

// anomaly handles one triggered condition from p's session: count it,
// and dump the recent entries of that session's sink unless
// rate-limited.
func (d *Deep) anomaly(reason string, p *Probe) {
	d.anomalies.Add(1)
	now := Now()
	last := d.lastDump.Load()
	// last == 0 means no dump yet: without the explicit check, an anomaly
	// in the process's first rate-limit window would be suppressed.
	if (last != 0 && now-last < anomalyDumpGap) || !d.lastDump.CompareAndSwap(last, now) {
		return
	}
	d.dump(reason, p.s.flight.peek(nil))
}

func (d *Deep) dump(reason string, recent []OpSummary) {
	if fn := d.onAnomaly.Load(); fn != nil {
		(*fn)(reason, recent)
		return
	}
	defaultAnomalySink(reason, recent)
}

// defaultAnomalySink logs the reason and a tail of the ring to stderr.
func defaultAnomalySink(reason string, recent []OpSummary) {
	const tail = 8
	if len(recent) > tail {
		recent = recent[len(recent)-tail:]
	}
	line := fmt.Sprintf("bwtree flightrec: %s; last %d ops:", reason, len(recent))
	for _, s := range recent {
		line += fmt.Sprintf(" [%s %dus chain=%d cas=%d ab=%d]",
			s.Class, s.Dur/1000, s.ChainLen, s.CASRetries, s.Aborts)
	}
	log.Print(line)
}

// Probe is one session's trace handle: the session's own per-op state and
// the sink its records go to. All Emit/Op*/Note*/Span/Latency methods
// are called only by the owning session goroutine; a nil receiver is
// valid everywhere and makes each call a single nil check — the
// disabled-mode contract.
type Probe struct {
	d  *Deep
	s  *sink
	id int32 // session id, the Chrome-trace tid; unique below 2^31 sessions

	// Owner-private per-op state: plain fields, single writer.
	ctr      uint64 // outermost ops begun, drives sampling
	nest     int32  // OpBegin depth (a durable commit wraps a tree op)
	active   bool   // current outermost op is sampled
	opChain  uint32
	opCAS    uint32
	opAborts uint32
	cur      OpTrace
}

// Active reports whether the current operation is being phase-sampled;
// span probes gate their clock reads on it.
func (p *Probe) Active() bool { return p != nil && p.active }

// Emit records one structural event.
func (p *Probe) Emit(kind EventKind, node, a, b uint64) {
	if p == nil {
		return
	}
	ev := Event{Seq: p.d.seq.Add(1), Time: Now(), Kind: kind, Node: node, A: a, B: b}
	if p.s.events.push(ev) {
		p.d.eventsDropped.Add(1)
	}
}

// OpBegin opens one public operation. Nested calls (a durable commit
// wrapping the in-memory apply, or per-op accounting inside a batch)
// attach to the outermost operation; only it is sampled and summarized.
func (p *Probe) OpBegin() {
	if p == nil {
		return
	}
	p.nest++
	if p.nest > 1 {
		return
	}
	p.opChain, p.opCAS, p.opAborts = 0, 0, 0
	p.ctr++
	if p.ctr%p.d.every == 0 {
		p.active = true
		p.cur = OpTrace{Worker: p.id}
	}
}

// Span records one timed phase of the sampled operation. Callers must
// have checked Active (and captured start) before doing the phase work.
func (p *Probe) Span(ph Phase, start int64, arg uint64) {
	if int(p.cur.NSpans) >= len(p.cur.Spans) {
		return
	}
	p.cur.Spans[p.cur.NSpans] = Span{Phase: ph, Start: start, Dur: Now() - start, Arg: arg}
	p.cur.NSpans++
}

// NoteChain records one observed leaf-chain depth: it feeds the live
// depth distribution and the current op's summary. Every lookup calls
// it, so the nil check stays small enough to inline into the caller.
func (p *Probe) NoteChain(n uint32) {
	if p != nil {
		p.noteChain(n)
	}
}

func (p *Probe) noteChain(n uint32) {
	p.opChain = max(p.opChain, n)
	p.s.depth.RecordNS(int64(n))
}

// NoteCASFail counts one lost mapping-table publish.
func (p *Probe) NoteCASFail() {
	if p == nil {
		return
	}
	p.opCAS++
}

// NoteAbort counts one traversal restart.
func (p *Probe) NoteAbort() {
	if p == nil {
		return
	}
	p.opAborts++
}

// Latency records one latency observation of ns nanoseconds in class c.
// Unlike OpEnd it counts nested operations too: each op of a batch in its
// own class next to the batch's one OpBatch observation.
func (p *Probe) Latency(c OpClass, ns int64) {
	if p == nil {
		return
	}
	p.s.lat.Record(c, ns)
}

// OpEnd closes the operation opened by the matching OpBegin. At the
// outermost level it publishes the flight entry, checks the anomaly
// triggers, and finalizes the sampled trace if the op was sampled.
func (p *Probe) OpEnd(c OpClass, start, dur int64) {
	if p == nil {
		return
	}
	p.nest--
	if p.nest > 0 {
		return
	}
	if p.nest < 0 {
		p.nest = 0 // tolerate an unmatched OpEnd rather than corrupt state
	}
	p.s.flight.push(OpSummary{
		Seq: p.d.seq.Add(1), Class: c, Start: start, Dur: dur,
		ChainLen: p.opChain, CASRetries: p.opCAS, Aborts: p.opAborts,
	})
	if ca := p.d.chainAnomaly; ca > 0 && p.opChain > ca {
		p.d.anomaly(fmt.Sprintf("%s op saw chain depth %d (consolidation trigger %d)",
			c, p.opChain, ca), p)
	}
	if p.active {
		p.active = false
		p.cur.Seq = p.d.seq.Add(1)
		p.cur.Class = c
		p.cur.Start = start
		p.cur.Dur = dur
		p.cur.ChainLen = p.opChain
		p.cur.CASRetries = p.opCAS
		p.cur.Aborts = p.opAborts
		if p.s.traces.push(p.cur) {
			p.d.tracesDropped.Add(1)
		}
	}
}
