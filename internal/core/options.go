// Package core implements the OpenBw-Tree: a lock-free B-tree variant that
// applies updates by appending delta records to per-node chains and
// publishes every structural change with a single compare-and-swap on a
// central mapping table.
//
// The implementation follows "Building a Bw-Tree Takes More Than Just Buzz
// Words" (SIGMOD 2018): base nodes are immutable; each logical node is a
// chain of delta records ending in a base node; splits and merges are
// multi-stage structural modification operations (SMOs) that other threads
// help complete; safe memory reclamation uses epoch-based GC.
//
// Every optimization from §4 of the paper is implemented and individually
// switchable through Options, which is how the benchmark harness
// reconstructs the "good-faith original Bw-Tree" baseline and the
// one-at-a-time optimization study (Fig. 12a).
package core

import "time"

// GCScheme selects the epoch-based garbage collection variant (§4.2).
type GCScheme uint8

const (
	// GCDecentralized is the OpenBw-Tree scheme: per-thread local epochs
	// and garbage lists, no shared-counter writes on the hot path.
	GCDecentralized GCScheme = iota
	// GCCentralized is the original Bw-Tree scheme: a list of epoch
	// objects with shared active counters, drained by a background thread.
	GCCentralized
)

// Options configures a Tree. The zero value is not meaningful; start from
// DefaultOptions or BaselineOptions.
type Options struct {
	// LeafNodeSize is the maximum number of items in a leaf base node
	// before it splits (paper default 128). It is also the read-trigger
	// threshold: the LeafNodeSize-th point read of a leaf chain with no
	// write in between consolidates the leaf, since by then readers have
	// replayed about as much as one consolidation copies.
	LeafNodeSize int
	// InnerNodeSize is the maximum number of separator items in an inner
	// base node before it splits (paper default 64).
	InnerNodeSize int
	// LeafChainLength is the leaf Delta Chain length that triggers
	// consolidation (paper default 24).
	LeafChainLength int
	// InnerChainLength is the inner Delta Chain length that triggers
	// consolidation (paper default 2).
	InnerChainLength int
	// LeafMergeSize is the leaf item count below which a node merges into
	// its left sibling. Zero disables leaf merging.
	LeafMergeSize int
	// InnerMergeSize is the inner separator count below which an inner
	// node merges. Zero disables inner merging.
	InnerMergeSize int

	// Preallocate enables delta-record pre-allocation (§4.1): each base
	// node carries a contiguous slab of delta slots claimed with an
	// atomic counter, instead of allocating every delta on the heap.
	Preallocate bool
	// FastConsolidate enables segment-based consolidation (§4.3) instead
	// of replay-then-sort.
	FastConsolidate bool
	// SearchShortcuts enables offset-based micro-indexing (§4.4): delta
	// records narrow the binary-search window on the base node.
	SearchShortcuts bool
	// NonUnique enables duplicate-key support (§3.1): lookups compute
	// delta visibility with present/deleted value sets, and inserts of an
	// existing key with a new value succeed.
	NonUnique bool
	// FlatBaseNodes stores each leaf base node's keys in one contiguous
	// immutable []byte arena plus a []uint32 offset array instead of a
	// [][]byte, with the node's common key prefix skipped during binary
	// search (see flatnode.go). Collapses per-probe pointer chases and
	// the GC's per-key mark work (~130 GC-visible pointers per full leaf
	// drop to ~4). Incompatible with InPlaceLeafUpdates, which mutates
	// base keys in place; sanitize resolves the conflict in favour of the
	// Fig. 18 debug mode.
	FlatBaseNodes bool
	// FlatInnerNodes applies the same arena layout to inner and root base
	// nodes: consolidation, split/merge SMO paths, and BulkLoad
	// materialize separator keys into one arena + offset array plus a
	// packed suffix-word search plane, and every routing probe runs a
	// branch-free register-compare search over the plane instead of
	// chasing a [][]byte pointer per separator (see flatnode.go).
	// Independent of FlatBaseNodes so the flatnode experiment can
	// measure the inner-node contribution on its own.
	FlatInnerNodes bool
	// ScanPipelining makes the iterator resolve the current leaf's right
	// sibling through the mapping table and touch its base arena as soon
	// as the current leaf is in hand, so a forward scan finds the
	// next leaf's keys already cache-resident (the BS-tree/FB+-tree
	// pipelined-leaf pattern). Point operations are unaffected.
	ScanPipelining bool

	// LatencyHistograms enables per-session log-bucketed latency
	// histograms for every public operation class, merged on demand by
	// Tree.Latencies. Off by default: recording costs one clock read and
	// two atomic adds per operation.
	LatencyHistograms bool
	// TraceRingSize, when positive, enables the structural event tracer:
	// each session gets a fixed ring of that many split/merge/
	// consolidate/abort events, drained tree-wide in sequence order by
	// Tree.TraceEvents. Zero disables tracing.
	TraceRingSize int
	// PhaseSampleEvery, when positive, phase-samples every Nth operation
	// per session: the sampled op records a span per hot-path phase
	// (descend, chain walk, base search, CaS, consolidation, WAL append,
	// fsync wait) into a fixed per-session ring, drained by
	// Tree.PhaseTraces for Chrome-trace export. Zero disables sampling.
	// Disabled cost is one nil check per probe (see probes_on.go).
	PhaseSampleEvery int
	// PhaseTraceBuffer is the per-session capacity of the sampled-trace
	// ring (default 256 when sampling is enabled).
	PhaseTraceBuffer int
	// FlightRecorderSize, when positive, gives each session a ring of
	// the most recent operation summaries (class, latency, observed
	// chain depth, CaS retries, aborts) — the always-on flight recorder.
	// The ring is dumped automatically on anomaly (latency over
	// FlightLatencyThreshold, chain depth over the consolidation
	// trigger) and on demand via Tree.FlightRecent or /debug/flightrec.
	FlightRecorderSize int
	// FlightLatencyThreshold is the per-op latency beyond which the
	// flight recorder auto-dumps; zero disables the latency trigger.
	FlightLatencyThreshold time.Duration

	// GC selects the garbage-collection scheme.
	GC GCScheme
	// GCInterval is the epoch-advance period (paper default 40ms).
	GCInterval time.Duration
	// GCThreshold is the local garbage-list length that triggers a
	// reclamation attempt in the decentralized scheme (paper default 1024).
	GCThreshold int

	// UnsafeNoCAS replaces the mapping table's compare-and-swap with a
	// non-atomic load/compare/store. Only valid for single-threaded use;
	// exists solely for the Fig. 18 feature-decomposition experiment.
	UnsafeNoCAS bool
	// InPlaceLeafUpdates makes leaf inserts and deletes mutate the base
	// node directly instead of appending deltas. Only valid for
	// single-threaded use; exists solely for the Fig. 18 experiment.
	InPlaceLeafUpdates bool
}

// DefaultOptions returns the OpenBw-Tree configuration used throughout the
// paper's evaluation (§5.1): 64/128 inner/leaf node sizes, 2/24 chain
// lengths, every optimization enabled, decentralized GC at 40ms.
func DefaultOptions() Options {
	return Options{
		LeafNodeSize:     128,
		InnerNodeSize:    64,
		LeafChainLength:  24,
		InnerChainLength: 2,
		LeafMergeSize:    32,
		InnerMergeSize:   16,
		Preallocate:      true,
		FastConsolidate:  true,
		SearchShortcuts:  true,
		NonUnique:        false,
		FlatBaseNodes:    true,
		FlatInnerNodes:   true,
		ScanPipelining:   true,
		GC:               GCDecentralized,
		GCInterval:       40 * time.Millisecond,
		GCThreshold:      1024,
	}
}

// BaselineOptions returns the "good-faith original Bw-Tree" configuration:
// the same tree with every §4 optimization disabled — heap-allocated delta
// records, replay-then-sort consolidation, full-node binary search, unique
// keys only, and the centralized GC scheme with a background thread. The
// paper's recommended chain length for the original design is 8 (§2.3).
func BaselineOptions() Options {
	o := DefaultOptions()
	o.Preallocate = false
	o.FastConsolidate = false
	o.SearchShortcuts = false
	o.NonUnique = false
	o.FlatBaseNodes = false
	o.FlatInnerNodes = false
	o.ScanPipelining = false
	o.GC = GCCentralized
	o.LeafChainLength = 8
	o.InnerChainLength = 8
	return o
}

// sanitize fills zero fields with defaults and derives internal limits.
func (o *Options) sanitize() {
	d := DefaultOptions()
	if o.LeafNodeSize <= 0 {
		o.LeafNodeSize = d.LeafNodeSize
	}
	if o.InnerNodeSize <= 0 {
		o.InnerNodeSize = d.InnerNodeSize
	}
	if o.LeafChainLength <= 0 {
		o.LeafChainLength = d.LeafChainLength
	}
	if o.InnerChainLength <= 0 {
		o.InnerChainLength = d.InnerChainLength
	}
	if o.GCInterval <= 0 {
		o.GCInterval = d.GCInterval
	}
	if o.GCThreshold <= 0 {
		o.GCThreshold = d.GCThreshold
	}
	if o.LeafMergeSize < 0 {
		o.LeafMergeSize = 0
	}
	if o.InnerMergeSize < 0 {
		o.InnerMergeSize = 0
	}
	if o.TraceRingSize < 0 {
		o.TraceRingSize = 0
	}
	if o.PhaseSampleEvery < 0 {
		o.PhaseSampleEvery = 0
	}
	if o.PhaseTraceBuffer < 0 {
		o.PhaseTraceBuffer = 0
	}
	if o.FlightRecorderSize < 0 {
		o.FlightRecorderSize = 0
	}
	if o.FlightLatencyThreshold < 0 {
		o.FlightLatencyThreshold = 0
	}
	// In-place leaf updates (Fig. 18 debug mode) mutate leaf base keys
	// directly, which the immutable flat arena cannot support. Inner
	// bases are never mutated in place, so FlatInnerNodes stays valid.
	if o.InPlaceLeafUpdates {
		o.FlatBaseNodes = false
	}
	// A node must be able to shed its merge threshold after a split.
	if o.LeafMergeSize > o.LeafNodeSize/2 {
		o.LeafMergeSize = o.LeafNodeSize / 2
	}
	if o.InnerMergeSize > o.InnerNodeSize/2 {
		o.InnerMergeSize = o.InnerNodeSize / 2
	}
}
