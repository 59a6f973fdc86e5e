package obs

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the trace pipeline: one Deep per tree and one Probe
// handle per session. Each handle keeps three rings of the same generic
// type (ring.go):
//
//   - events: structural modifications (split, merge, consolidate,
//     abort), drained destructively by /debug/trace;
//   - traces: full phase breakdowns of sampled operations (1 in
//     SampleEvery), drained destructively for Chrome-trace export;
//   - flight: compact summaries of *every* completed operation, kept for
//     post-hoc inspection and dumped automatically on anomaly.
//
// Every record draws its Seq from the Deep's one counter, so merging any
// of the three streams across sessions, or all three together, restores
// the tree-wide order in which the records were written.
//
// The recording discipline matches the package contract: with every
// trace option off the tree holds no Deep at all, every session's handle
// is nil, and every probe call is a single nil check. When enabled, the
// per-op state (span array, counters) is owner-private plain memory; the
// only shared work per record is one sequence fetch plus one short
// uncontended mutex section to publish it. The mutexes exist solely so
// the HTTP dump endpoints can copy records without torn reads.

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
	Worker     int32 // probe (session) index, the Chrome-trace tid
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
// reason and the dumping session's most recent op summaries (oldest
// first).
type AnomalySink func(reason string, recent []OpSummary)

// DeepConfig configures a Deep. Each per-session ring whose capacity is
// zero is off.
type DeepConfig struct {
	// EventBuf is the per-session structural-event ring capacity; 0
	// disables event tracing.
	EventBuf int
	// SampleEvery samples every Nth operation per session into a full
	// phase trace; 0 disables phase sampling (the flight recorder can
	// still run).
	SampleEvery int
	// TraceBuf is the per-session sampled-trace ring capacity
	// (default 256 when sampling).
	TraceBuf int
	// FlightBuf is the per-session flight-recorder capacity; 0 disables
	// the flight recorder.
	FlightBuf int
	// LatencyAnomalyNS auto-dumps the flight recorder when an op takes
	// longer than this many nanoseconds; 0 disables the latency trigger.
	LatencyAnomalyNS int64
	// ChainAnomaly auto-dumps when an op observes a leaf chain deeper
	// than this (the consolidation trigger is the natural setting); 0
	// disables the chain trigger.
	ChainAnomaly int
}

func (c *DeepConfig) sanitize() {
	c.EventBuf = max(c.EventBuf, 0)
	c.SampleEvery = max(c.SampleEvery, 0)
	c.FlightBuf = max(c.FlightBuf, 0)
	switch {
	case c.SampleEvery == 0:
		c.TraceBuf = 0
	case c.TraceBuf <= 0:
		c.TraceBuf = 256
	}
}

// Deep owns one tree's trace pipeline: the handle registry, the one
// sequence counter, the drop counts and the anomaly sink. A nil *Deep is
// the tree with every trace option off: its accessors return empty
// results and its Probe returns a nil handle.
type Deep struct {
	cfg DeepConfig
	ops bool // sampling or flight recorder on: handles record operations

	seq           atomic.Uint64
	eventsDropped atomic.Uint64 // events lost to ring wraparound
	tracesDropped atomic.Uint64 // sampled traces lost to ring wraparound
	anomalies     atomic.Uint64 // anomaly triggers (dumped or rate-limited)
	lastDump      atomic.Int64  // obs.Now of the last sink invocation
	sink          atomic.Pointer[AnomalySink]

	mu     sync.Mutex
	probes []*Probe
	free   []*Probe
}

// NewDeep returns a trace pipeline configured by cfg (zero fields
// defaulted).
func NewDeep(cfg DeepConfig) *Deep {
	cfg.sanitize()
	return &Deep{cfg: cfg, ops: cfg.SampleEvery > 0 || cfg.FlightBuf > 0}
}

// SetAnomalySink replaces the automatic-dump destination. A nil sink
// restores the default, which logs a compact rendering to stderr.
func (d *Deep) SetAnomalySink(fn AnomalySink) {
	switch {
	case d == nil:
	case fn == nil:
		d.sink.Store(nil)
	default:
		d.sink.Store(&fn)
	}
}

// Probe returns a handle for one session, reusing a released one when
// available (its undrained records are preserved).
func (d *Deep) Probe() *Probe {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		p := d.free[n-1]
		d.free = d.free[:n-1]
		return p
	}
	p := &Probe{d: d, worker: int32(len(d.probes)), ops: d.ops}
	p.events.buf = make([]Event, d.cfg.EventBuf)
	p.traces.buf = make([]OpTrace, d.cfg.TraceBuf)
	p.flight.buf = make([]OpSummary, d.cfg.FlightBuf)
	d.probes = append(d.probes, p)
	return p
}

// Release returns a handle to the reuse pool. Its records stay
// drainable.
func (d *Deep) Release(p *Probe) {
	if p == nil {
		return
	}
	d.mu.Lock()
	d.free = append(d.free, p)
	d.mu.Unlock()
}

// handles copies the registry for lock-free iteration.
func (d *Deep) handles() []*Probe {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Probe(nil), d.probes...)
}

// Events drains every handle's structural events into one stream sorted
// by sequence number. Destructive: each event is returned once.
func (d *Deep) Events() []Event {
	var out []Event
	for _, p := range d.handles() {
		out = p.events.drain(out)
	}
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

// Traces drains every handle's sampled phase traces into one stream
// sorted by sequence number. Destructive: each trace is returned once.
func (d *Deep) Traces() []OpTrace {
	var out []OpTrace
	for _, p := range d.handles() {
		out = p.traces.drain(out)
	}
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
// session (all entries when n <= 0), oldest first. Non-destructive.
func (d *Deep) Flight(n int) []OpSummary {
	var out []OpSummary
	for _, p := range d.handles() {
		out = p.flight.peek(out)
	}
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

// ChainDepths merges every handle's observed leaf-chain-depth histogram.
func (d *Deep) ChainDepths() HistSnapshot {
	var s HistSnapshot
	for _, p := range d.handles() {
		p.depth.AddTo(&s)
	}
	return s
}

// Note pushes an out-of-band event (e.g. recovery start) through the
// anomaly sink, bypassing the rate limit, with the current tree-wide
// flight tail attached. A no-op unless handles record operations.
func (d *Deep) Note(reason string) {
	if d == nil || !d.ops {
		return
	}
	d.anomalies.Add(1)
	d.lastDump.Store(Now())
	d.dump(reason, d.Flight(64))
}

// anomalyDumpGap is the minimum spacing between automatic dumps, so an
// anomaly storm (every op over threshold) degrades to one dump a second
// instead of a stderr flood.
const anomalyDumpGap = int64(time.Second)

// anomaly handles one triggered condition from p's session: count it,
// and dump that session's recent entries unless rate-limited.
func (d *Deep) anomaly(reason string, p *Probe) {
	d.anomalies.Add(1)
	now := Now()
	last := d.lastDump.Load()
	// last == 0 means no dump yet: without the explicit check, an anomaly
	// in the process's first rate-limit window would be suppressed.
	if (last != 0 && now-last < anomalyDumpGap) || !d.lastDump.CompareAndSwap(last, now) {
		return
	}
	d.dump(reason, p.flight.peek(nil))
}

func (d *Deep) dump(reason string, recent []OpSummary) {
	if fn := d.sink.Load(); fn != nil {
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

// Probe is one session's trace handle. All Emit/Op*/Note*/Span methods
// are called only by the owning session goroutine; a nil receiver is
// valid everywhere and makes each call a single nil check — the
// disabled-mode contract.
type Probe struct {
	d      *Deep
	worker int32
	ops    bool // Deep.ops: the per-operation methods record

	// Owner-private per-op state: plain fields, single writer.
	ctr      uint64 // outermost ops begun, drives sampling
	nest     int32  // OpBegin depth (a durable commit wraps a tree op)
	active   bool   // current outermost op is sampled
	opChain  uint32
	opCAS    uint32
	opAborts uint32
	cur      OpTrace

	// depth is the live leaf-chain-depth distribution (atomic adds; read
	// concurrently by ChainDepths).
	depth Histogram

	events ring[Event]
	traces ring[OpTrace]
	flight ring[OpSummary]
}

// RecordsOps reports whether the handle records operations (phase
// sampling or the flight recorder is on); callers gate their op clock
// reads on it.
func (p *Probe) RecordsOps() bool { return p != nil && p.ops }

// Active reports whether the current operation is being phase-sampled;
// span probes gate their clock reads on it.
func (p *Probe) Active() bool { return p != nil && p.active }

// Emit records one structural event. A no-op unless event tracing is on.
func (p *Probe) Emit(kind EventKind, node, a, b uint64) {
	if p == nil || !p.events.on() {
		return
	}
	ev := Event{Seq: p.d.seq.Add(1), Time: Now(), Kind: kind, Node: node, A: a, B: b}
	if p.events.push(ev) {
		p.d.eventsDropped.Add(1)
	}
}

// OpBegin opens one public operation. Nested calls (a durable commit
// wrapping the in-memory apply, or per-op accounting inside a batch)
// attach to the outermost operation; only it is sampled and summarized.
func (p *Probe) OpBegin() {
	if !p.RecordsOps() {
		return
	}
	p.nest++
	if p.nest > 1 {
		return
	}
	p.opChain, p.opCAS, p.opAborts = 0, 0, 0
	if p.traces.on() {
		p.ctr++
		if every := uint64(p.d.cfg.SampleEvery); p.ctr%every == 0 {
			p.active = true
			p.cur = OpTrace{Worker: p.worker}
		}
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
// depth distribution and the current op's summary.
func (p *Probe) NoteChain(n uint32) {
	if !p.RecordsOps() {
		return
	}
	if n > p.opChain {
		p.opChain = n
	}
	p.depth.RecordNS(int64(n))
}

// NoteCASFail counts one lost mapping-table publish.
func (p *Probe) NoteCASFail() {
	if !p.RecordsOps() {
		return
	}
	p.opCAS++
}

// NoteAbort counts one traversal restart.
func (p *Probe) NoteAbort() {
	if !p.RecordsOps() {
		return
	}
	p.opAborts++
}

// OpEnd closes the operation opened by the matching OpBegin. At the
// outermost level it publishes the flight entry, checks the anomaly
// triggers, and finalizes the sampled trace if the op was sampled.
func (p *Probe) OpEnd(c OpClass, start, dur int64) {
	if !p.RecordsOps() {
		return
	}
	p.nest--
	if p.nest > 0 {
		return
	}
	if p.nest < 0 {
		p.nest = 0 // tolerate an unmatched OpEnd rather than corrupt state
	}
	if p.flight.on() {
		p.flight.push(OpSummary{
			Seq: p.d.seq.Add(1), Class: c, Start: start, Dur: dur,
			ChainLen: p.opChain, CASRetries: p.opCAS, Aborts: p.opAborts,
		})
		cfg := &p.d.cfg
		switch {
		case cfg.LatencyAnomalyNS > 0 && dur > cfg.LatencyAnomalyNS:
			p.d.anomaly(fmt.Sprintf("%s op took %dus (threshold %dus)",
				c, dur/1000, cfg.LatencyAnomalyNS/1000), p)
		case cfg.ChainAnomaly > 0 && p.opChain > uint32(cfg.ChainAnomaly):
			p.d.anomaly(fmt.Sprintf("%s op saw chain depth %d (consolidation trigger %d)",
				c, p.opChain, cfg.ChainAnomaly), p)
		}
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
		if p.traces.push(p.cur) {
			p.d.tracesDropped.Add(1)
		}
	}
}
