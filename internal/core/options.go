// Package core implements the OpenBw-Tree: a lock-free B-tree variant that
// applies updates by appending delta records to per-node chains and
// publishes every structural change with a single compare-and-swap on a
// central mapping table.
//
// The implementation follows "Building a Bw-Tree Takes More Than Just Buzz
// Words" (SIGMOD 2018): each logical node is a chain of delta records
// ending in a base node; splits and merges are multi-stage structural
// modification operations (SMOs) that other threads help complete; safe
// memory reclamation uses epoch-based GC. A base node's keys never change
// once it is published. Its values are immutable too, with one exception:
// with Options.UpdateInPlace, an Update of a key held by a leaf base that
// no delta of its chain overrides stores the new value into the base's
// slot under the base's sequence word instead of prepending a ∆update, and any
// copy of a base first seals it against such stores (DESIGN.md, "In-place
// updates").
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
	// delta posted in between consolidates the leaf, since by then readers
	// have replayed about as much as one consolidation copies. An in-place
	// store under the chain counts LeafNodeSize/LeafChainLength reads.
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
	// UpdateInPlace lets a unique-key Update of a key held by a leaf
	// base, when no delta of the chain decides the key, store the new
	// value and a fresh version stamp into the base's slot under the
	// base's sequence word, instead of prepending a ∆update. A store on a
	// chained leaf counts toward its read-triggered consolidation (see
	// LeafNodeSize). A base that is being copied
	// is sealed first, and an update that finds it sealed falls back to
	// the ∆update. Off in BaselineOptions: the original Bw-Tree posts
	// every update as a delta.
	UpdateInPlace bool

	// Trace turns on the whole observability pipeline (internal/obs),
	// at fixed sizes. Each session keeps per-class latency histograms
	// (Tree.Latencies); the leaf-chain-depth histogram (Tree.ChainDepths);
	// and three rings of obs.RingSize records: structural events
	// (split/merge/consolidate/abort, Tree.TraceEvents), the flight
	// recorder's summary of every operation (Tree.FlightRecent, dumped
	// automatically when an op sees a chain deeper than LeafChainLength),
	// and a full phase trace of every obs.SampleEvery-th operation
	// (descend, chain walk, base search, CaS, consolidation, WAL append,
	// fsync wait; Tree.PhaseTraces, for Chrome-trace export). Off, the
	// tree holds no pipeline and every probe is one nil check (see
	// probes_on.go); on, an op costs two clock reads and a few
	// uncontended atomic adds and mutex sections.
	Trace bool

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
		UpdateInPlace:    true,
		GC:               GCDecentralized,
		GCInterval:       40 * time.Millisecond,
		GCThreshold:      1024,
	}
}

// BaselineOptions returns the "good-faith original Bw-Tree" configuration:
// the same tree with every §4 optimization disabled — heap-allocated delta
// records, replay-then-sort consolidation, full-node binary search, unique
// keys only, every update a ∆update, and the centralized GC scheme with a
// background thread. The paper's recommended chain length for the
// original design is 8 (§2.3).
func BaselineOptions() Options {
	o := DefaultOptions()
	o.Preallocate = false
	o.FastConsolidate = false
	o.SearchShortcuts = false
	o.NonUnique = false
	o.UpdateInPlace = false
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
	// A node must be able to shed its merge threshold after a split.
	if o.LeafMergeSize > o.LeafNodeSize/2 {
		o.LeafMergeSize = o.LeafNodeSize / 2
	}
	if o.InnerMergeSize > o.InnerNodeSize/2 {
		o.InnerMergeSize = o.InnerNodeSize / 2
	}
}
