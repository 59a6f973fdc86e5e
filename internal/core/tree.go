package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// Tree is a lock-free Bw-Tree mapping non-empty byte-string keys to uint64
// values. All structural state lives behind the mapping table; every
// mutation is published with a single compare-and-swap.
//
// Operations are performed through per-goroutine Sessions (NewSession).
// The Tree itself is safe for concurrent use by any number of sessions.
type Tree struct {
	opts Options
	mt   *mapping.Table[delta]
	gc   epoch.GC
	// hpool recycles epoch handles across sessions so NewSession/Release
	// churn (one session per batch in some callers) skips the GC
	// registry round-trip.
	hpool *epoch.Pool
	root  nodeID

	// leafSlabs/innerSlabs recycle pre-allocation slabs whose chains
	// have drained from all epochs.
	leafSlabs  slabPool
	innerSlabs slabPool

	// trace is the trace pipeline (structural events, sampled phase
	// traces, flight recorder) when any of Options.TraceRingSize,
	// PhaseSampleEvery or FlightRecorderSize is set; nil otherwise. A
	// nil *obs.Deep reads as empty, so the accessors below need no check.
	trace *obs.Deep

	// verCtr issues version stamps for leaf records: every published leaf
	// delta draws a fresh value, so two successive states of one key never
	// share a stamp — the inequality the optimistic transaction layer's
	// read validation relies on. See delta.ver.
	verCtr atomic.Uint64

	mu        sync.Mutex // guards sessions registry (cold path)
	sessions  map[*Session]struct{}
	closed    sessionStats        // counters absorbed from released sessions
	latClosed obs.LatencySnapshot // histograms absorbed from released sessions
}

// getSlab returns a recycled or fresh slab for a new base node.
func (t *Tree) getSlab(leaf bool) *slab {
	if leaf {
		return t.leafSlabs.get(t.opts.LeafChainLength)
	}
	return t.innerSlabs.get(t.opts.InnerChainLength)
}

// New returns an empty tree configured by opts. Per §2.1 of the paper the
// initial tree is an inner base node holding one separator that refers to
// an empty leaf base node.
func New(opts Options) *Tree {
	opts.sanitize()
	t := &Tree{
		opts:     opts,
		mt:       mapping.New[delta](1 << 16),
		sessions: make(map[*Session]struct{}),
	}
	switch opts.GC {
	case GCCentralized:
		t.gc = epoch.NewCentralized(opts.GCInterval)
	default:
		t.gc = epoch.NewDecentralized(opts.GCInterval, opts.GCThreshold)
	}
	t.hpool = epoch.NewPool(t.gc)
	tc := obs.DeepConfig{EventBuf: opts.TraceRingSize}
	if deepProbes {
		// Under -tags notrace the per-op probes are compiled out, so only
		// structural events, emitted at SMO sites, can fill a ring.
		tc.SampleEvery = opts.PhaseSampleEvery
		tc.TraceBuf = opts.PhaseTraceBuffer
		tc.FlightBuf = opts.FlightRecorderSize
		tc.LatencyAnomalyNS = int64(opts.FlightLatencyThreshold)
		// An op can legitimately observe a chain right at the
		// consolidation trigger; strictly deeper means consolidation is
		// losing its publish race repeatedly — worth a dump.
		tc.ChainAnomaly = opts.LeafChainLength
	}
	if tc.EventBuf > 0 || tc.SampleEvery > 0 || tc.FlightBuf > 0 {
		t.trace = obs.NewDeep(tc)
	}

	t.root = t.mt.Allocate()
	leafID := t.mt.Allocate()
	leaf := newBaseNode(kLeafBase)
	t.setBaseKeys(leaf, nil)
	if opts.Preallocate {
		leaf.slab = t.getSlab(true)
	}
	t.mt.Store(leafID, leaf)

	root := newBaseNode(kInnerBase)
	root.size = 1
	root.kids = []nodeID{leafID}
	t.setBaseKeys(root, [][]byte{nil}) // -inf separator
	if opts.Preallocate {
		root.slab = t.getSlab(false)
	}
	t.mt.Store(t.root, root)
	return t
}

// Options returns the configuration the tree was built with.
func (t *Tree) Options() Options { return t.opts }

// Close stops the tree's background GC goroutine and releases every
// remaining session. The caller must guarantee no operation is in flight.
func (t *Tree) Close() {
	t.mu.Lock()
	ss := make([]*Session, 0, len(t.sessions))
	for s := range t.sessions {
		ss = append(ss, s)
	}
	t.mu.Unlock()
	for _, s := range ss {
		s.Release()
	}
	t.hpool.Drain()
	t.gc.Close()
}

// load resolves a logical node ID to its current chain head.
func (t *Tree) load(id nodeID) *delta { return t.mt.Load(id) }

// casFailHook, when non-nil, is consulted before every mapping-table
// publication; returning true makes the CaS report failure without
// executing. It exists so tests can deterministically drive the restart,
// help-along, and SMO-retry paths that normally need a racing thread.
var casFailHook func(id nodeID, old, new *delta) bool

// cas publishes a new chain head for id. With UnsafeNoCAS (Fig. 18
// decomposition) the compare and the store are performed non-atomically,
// which is only valid single-threaded.
func (t *Tree) cas(id nodeID, old, new *delta) bool {
	if casFailHook != nil && casFailHook(id, old, new) {
		return false
	}
	if t.opts.UnsafeNoCAS {
		if t.mt.Load(id) != old {
			return false
		}
		t.mt.Store(id, new)
		return true
	}
	return t.mt.CompareAndSwap(id, old, new)
}

// Session is a single worker goroutine's handle to the tree. It bundles
// the goroutine's epoch-GC handle, scratch buffers reused across
// operations, and private statistics counters — the moral equivalent of
// the thread-local state a DBMS worker thread would own (§2).
//
// A Session must not be used concurrently. Obtain one per goroutine.
type Session struct {
	t     *Tree
	h     epoch.Handle
	stats sessionStats

	// chases batches delta-chain pointer dereferences — the hottest
	// counter, bumped once per delta record walked. It is owner-private
	// (plain increments) and flushed into stats.pointerChases with one
	// atomic add per completed operation.
	chases uint64
	// lat records per-class operation latencies when
	// Options.LatencyHistograms is set; nil otherwise.
	lat *obs.Recorder
	// probe is the session's trace handle (its event, sampled-trace and
	// flight rings) when the tree has a trace pipeline; nil otherwise.
	// Every per-op use is additionally gated by the deepProbes build-tag
	// constant so -tags notrace builds compile those probes out
	// entirely; structural events still record.
	probe *obs.Probe

	// leafHits/parentHits batch the traversal-cache hit counters the same
	// way chases batches pointer dereferences; flushed by batchDone.
	leafHits   uint64
	parentHits uint64

	// Scratch space reused across operations to keep the hot path
	// allocation-free.
	present    []uint64
	deleted    []uint64
	scratch    []uint64
	insScratch []effRec
	delScratch []effRec
	batchOrd   []batchEnt
	released   bool
}

// sessionStats are the per-worker counters behind Stats and Table 2.
// Each counter is written by its owning session and read concurrently by
// Tree.Stats, so the fields are atomics; increments stay uncontended
// single-writer adds.
type sessionStats struct {
	ops            atomic.Uint64 // completed operations
	aborts         atomic.Uint64 // traversal restarts (failed CaS, ∆abort, ...)
	consolidations atomic.Uint64
	splits         atomic.Uint64
	merges         atomic.Uint64
	slabFull       atomic.Uint64 // pre-allocation slab exhaustion events
	pointerChases  atomic.Uint64 // delta-chain next-pointer dereferences
	casFailures    atomic.Uint64
	leafSlabUsed   atomic.Uint64 // slots claimed in retired leaf slabs
	leafSlabCap    atomic.Uint64 // slot capacity of retired leaf slabs
	innerSlabUsed  atomic.Uint64
	innerSlabCap   atomic.Uint64
	// batchLeafHits/batchParentHits count batched operations that reused
	// the previous op's leaf (or routed one level from its parent) instead
	// of descending from the root.
	batchLeafHits   atomic.Uint64
	batchParentHits atomic.Uint64
}

func (a *sessionStats) add(b *sessionStats) {
	a.ops.Add(b.ops.Load())
	a.aborts.Add(b.aborts.Load())
	a.consolidations.Add(b.consolidations.Load())
	a.splits.Add(b.splits.Load())
	a.merges.Add(b.merges.Load())
	a.slabFull.Add(b.slabFull.Load())
	a.pointerChases.Add(b.pointerChases.Load())
	a.casFailures.Add(b.casFailures.Load())
	a.leafSlabUsed.Add(b.leafSlabUsed.Load())
	a.leafSlabCap.Add(b.leafSlabCap.Load())
	a.innerSlabUsed.Add(b.innerSlabUsed.Load())
	a.innerSlabCap.Add(b.innerSlabCap.Load())
	a.batchLeafHits.Add(b.batchLeafHits.Load())
	a.batchParentHits.Add(b.batchParentHits.Load())
}

// NewSession registers a worker goroutine with the tree.
func (t *Tree) NewSession() *Session {
	s := &Session{t: t, h: t.hpool.Get(), probe: t.trace.Probe()}
	if t.opts.LatencyHistograms {
		s.lat = &obs.Recorder{}
	}
	t.mu.Lock()
	t.sessions[s] = struct{}{}
	t.mu.Unlock()
	return s
}

// Release unregisters the session, folding its counters into the tree.
func (s *Session) Release() {
	if s.released {
		return
	}
	s.released = true
	if n := s.chases; n != 0 {
		s.chases = 0
		s.stats.pointerChases.Add(n)
	}
	s.t.mu.Lock()
	delete(s.t.sessions, s)
	s.t.closed.add(&s.stats)
	if s.lat != nil {
		s.lat.AddTo(&s.t.latClosed)
	}
	s.t.mu.Unlock()
	s.t.trace.Release(s.probe)
	s.probe = nil
	s.t.hpool.Put(s.h)
}

// opStart returns the operation start timestamp, or 0 when neither
// latency histograms nor deep-path tracing is enabled (the common case:
// two predictable nil checks, no clock read).
func (s *Session) opStart() int64 {
	if deepProbes && s.probe.RecordsOps() {
		s.probe.OpBegin()
		return obs.Now()
	}
	if s.lat == nil {
		return 0
	}
	return obs.Now()
}

// opDone closes out one public operation: it counts the op, flushes the
// batched pointer-chase counter, records the latency when enabled, and
// finalizes the deep-path probe (flight-recorder entry, sampled phase
// trace, anomaly checks).
func (s *Session) opDone(c obs.OpClass, start int64) {
	s.stats.ops.Add(1)
	if n := s.chases; n != 0 {
		s.chases = 0
		s.stats.pointerChases.Add(n)
	}
	if s.lat == nil && !(deepProbes && s.probe.RecordsOps()) {
		return
	}
	end := obs.Now()
	if s.lat != nil {
		s.lat.Record(c, end-start)
	}
	if deepProbes && s.probe.RecordsOps() {
		s.probe.OpEnd(c, start, end-start)
	}
}

// phStart returns a span start timestamp when this operation was chosen
// for phase sampling, else 0. Cost when not sampling: one nil check and
// one bool load — no clock read.
func (s *Session) phStart() int64 {
	if deepProbes && s.probe.Active() {
		return obs.Now()
	}
	return 0
}

// phEnd records one phase span for a sampled operation. t0 is the value
// phStart returned; zero means the op is not sampled and the call is a
// single branch.
func (s *Session) phEnd(ph obs.Phase, t0 int64, arg uint64) {
	if deepProbes && t0 != 0 {
		s.probe.Span(ph, t0, arg)
	}
}

// emit records a structural event into the session's event ring, if any.
func (s *Session) emit(k obs.EventKind, node nodeID, a, b uint64) {
	if s.probe != nil {
		s.probe.Emit(k, node, a, b)
	}
}

// Stats is a point-in-time aggregate of the tree's operation counters.
// AbortRate matches Table 2 of the paper: aborts per completed operation
// (it exceeds 1.0 under heavy contention).
type Stats struct {
	Ops            uint64
	Aborts         uint64
	Consolidations uint64
	Splits         uint64
	Merges         uint64
	SlabFull       uint64
	PointerChases  uint64
	CASFailures    uint64
	// LeafSlabUsed/Cap accumulate claimed slots and capacity of every
	// retired leaf pre-allocation slab — the lifecycle LPU of Table 2.
	LeafSlabUsed  uint64
	LeafSlabCap   uint64
	InnerSlabUsed uint64
	InnerSlabCap  uint64
	// BatchLeafHits/BatchParentHits count batched operations that skipped
	// the root-to-leaf descent via the cached traversal.
	BatchLeafHits   uint64
	BatchParentHits uint64
	GC              epoch.Stats
}

// AbortRate returns aborts per completed operation.
func (st Stats) AbortRate() float64 {
	if st.Ops == 0 {
		return 0
	}
	return float64(st.Aborts) / float64(st.Ops)
}

// LeafPreallocUtilization returns the fraction of pre-allocated leaf delta
// slots that were actually claimed, measured over retired slabs (LPU).
func (st Stats) LeafPreallocUtilization() float64 {
	if st.LeafSlabCap == 0 {
		return 0
	}
	return float64(st.LeafSlabUsed) / float64(st.LeafSlabCap)
}

// InnerPreallocUtilization is the inner-node counterpart (IPU).
func (st Stats) InnerPreallocUtilization() float64 {
	if st.InnerSlabCap == 0 {
		return 0
	}
	return float64(st.InnerSlabUsed) / float64(st.InnerSlabCap)
}

// Stats aggregates counters across live and released sessions. Every
// counter is an atomic, so concurrent reads are race-free; the result is
// a consistent-enough aggregate while operations are in flight and exact
// once workers are quiescent.
func (t *Tree) Stats() Stats {
	var agg sessionStats
	t.mu.Lock()
	agg.add(&t.closed)
	for s := range t.sessions {
		agg.add(&s.stats)
	}
	t.mu.Unlock()
	return Stats{
		Ops:             agg.ops.Load(),
		Aborts:          agg.aborts.Load(),
		Consolidations:  agg.consolidations.Load(),
		Splits:          agg.splits.Load(),
		Merges:          agg.merges.Load(),
		SlabFull:        agg.slabFull.Load(),
		PointerChases:   agg.pointerChases.Load(),
		CASFailures:     agg.casFailures.Load(),
		LeafSlabUsed:    agg.leafSlabUsed.Load(),
		LeafSlabCap:     agg.leafSlabCap.Load(),
		InnerSlabUsed:   agg.innerSlabUsed.Load(),
		InnerSlabCap:    agg.innerSlabCap.Load(),
		BatchLeafHits:   agg.batchLeafHits.Load(),
		BatchParentHits: agg.batchParentHits.Load(),
		GC:              t.gc.Stats(),
	}
}

// Latencies merges every session's latency histograms (live and
// released) into one snapshot. Returns nil unless the tree was built
// with Options.LatencyHistograms.
func (t *Tree) Latencies() *obs.LatencySnapshot {
	if !t.opts.LatencyHistograms {
		return nil
	}
	snap := &obs.LatencySnapshot{}
	t.mu.Lock()
	snap.Merge(&t.latClosed)
	for s := range t.sessions {
		if s.lat != nil {
			s.lat.AddTo(snap)
		}
	}
	t.mu.Unlock()
	return snap
}

// TraceEvents drains every session's structural events into one stream
// ordered by sequence number. Returns nil unless Options.TraceRingSize >
// 0. Draining is destructive: each event is returned once.
func (t *Tree) TraceEvents() []obs.Event { return t.trace.Events() }

// TraceDropped returns how many trace events were lost to ring
// wraparound before they could be drained.
func (t *Tree) TraceDropped() uint64 { return t.trace.EventsDropped() }

// PhaseTraces drains the sampled per-op phase traces from every session,
// ordered by completion sequence. Returns nil unless the tree was built
// with Options.PhaseSampleEvery > 0 (or under -tags notrace). Draining
// is destructive: each trace is returned once.
func (t *Tree) PhaseTraces() []obs.OpTrace { return t.trace.Traces() }

// PhaseTraceDropped returns how many sampled phase traces were lost to
// ring wraparound before they could be drained.
func (t *Tree) PhaseTraceDropped() uint64 { return t.trace.TracesDropped() }

// FlightRecent returns up to n of the most recent operation summaries
// from the flight recorder, oldest first, merged across sessions by
// completion sequence. Non-destructive. Returns nil unless the tree was
// built with Options.FlightRecorderSize > 0. n <= 0 means no limit.
func (t *Tree) FlightRecent(n int) []obs.OpSummary { return t.trace.Flight(n) }

// ChainDepths returns the distribution of delta-chain depths observed by
// completed operations (one observation per op: the deepest chain it
// walked). Zero-valued snapshot unless deep-path tracing is enabled.
func (t *Tree) ChainDepths() obs.HistSnapshot { return t.trace.ChainDepths() }

// SetAnomalySink replaces the flight recorder's anomaly handler (the
// default logs a compact line to stderr). Pass nil to restore the
// default. No-op unless a trace option is set.
func (t *Tree) SetAnomalySink(sink obs.AnomalySink) { t.trace.SetAnomalySink(sink) }

// AnomalyNote force-dumps the flight recorder with the given reason,
// bypassing the anomaly rate limit. Used by the durability layer to mark
// recovery starts. No-op unless deep-path tracing is enabled.
func (t *Tree) AnomalyNote(reason string) { t.trace.Note(reason) }

// Anomalies returns the number of anomaly dumps emitted so far.
func (t *Tree) Anomalies() uint64 { return t.trace.Anomalies() }

// MappingStats reports mapping-table occupancy (allocated, free-listed,
// live logical node IDs against total capacity).
func (t *Tree) MappingStats() mapping.TableStats {
	return t.mt.Stats()
}

// Probe exposes the session's deep-path probe so outer layers (the
// durability façade) can attach WAL-append and fsync-wait spans to the
// same sampled operation. Returns nil unless phase sampling or the
// flight recorder is on, and always under -tags notrace; *obs.Probe
// methods are nil-receiver-safe.
func (s *Session) Probe() *obs.Probe {
	if deepProbes && s.probe.RecordsOps() {
		return s.probe
	}
	return nil
}
