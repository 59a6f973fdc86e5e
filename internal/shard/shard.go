package shard

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/bwtree"
)

// Options configures a sharded Store.
type Options struct {
	// Shards is the partition count; 0 means 1. Each shard is a fully
	// independent Bw-Tree sized for one core's traffic.
	Shards int
	// Router selects the partitioning scheme; nil means a hash router
	// over Shards partitions. Its NumShards must equal Shards.
	Router Router
	// Tree configures every shard's tree identically.
	Tree bwtree.Options
	// WALDir, when non-empty, makes the store durable with one log in
	// WALDir that every shard writes (see bwtree.DurableOptions.Router):
	// a commit spanning shards is one record. Recovery loads the shards
	// in parallel at Open.
	WALDir string
	// SyncOnCommit is the acknowledged-write guarantee (see
	// bwtree.DurableOptions).
	SyncOnCommit bool
}

// Shard is one partition: an independent tree, optionally a partition of
// the store's durable log.
type Shard struct {
	ID int
	t  *bwtree.Tree
	d  *bwtree.Durable // nil without a WAL
}

// Tree exposes the shard's tree for stats and validation.
func (sh *Shard) Tree() *bwtree.Tree { return sh.t }

// Durable exposes the shard's partition of the durable store (nil when
// in-memory). Its log-wide methods act on the whole store.
func (sh *Shard) Durable() *bwtree.Durable { return sh.d }

// Store is a set of per-core Bw-Tree shards behind one Router. All
// cross-shard coordination lives here; inside a shard the tree's
// latch-free protocols run exactly as in the single-tree deployment.
type Store struct {
	opts   Options
	router Router
	shards []*Shard
	d      *bwtree.Durable // the durable store's handle; nil in memory
}

// Open builds (or, with WALDir, recovers) a sharded store.
func Open(o Options) (*Store, error) {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Router == nil {
		o.Router = NewHashRouter(o.Shards)
	}
	if o.Router.NumShards() != o.Shards {
		return nil, fmt.Errorf("shard: router covers %d shards, store has %d", o.Router.NumShards(), o.Shards)
	}
	if o.Tree.NonUnique {
		return nil, errors.New("shard: non-unique trees are not supported by the serving tier")
	}
	st := &Store{opts: o, router: o.Router, shards: make([]*Shard, o.Shards)}
	if o.WALDir == "" {
		for i := range st.shards {
			st.shards[i] = &Shard{ID: i, t: bwtree.New(o.Tree)}
		}
		return st, nil
	}
	// The per-shard log directories (shard-NNN) of the layout that gave
	// every shard its own log would otherwise open as an empty store.
	ents, err := os.ReadDir(o.WALDir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			return nil, fmt.Errorf("shard: %s holds per-shard logs (%s) of an older layout; refusing to open it",
				o.WALDir, e.Name())
		}
	}
	d, err := bwtree.OpenDurable(o.WALDir, bwtree.DurableOptions{
		Tree: o.Tree, SyncOnCommit: o.SyncOnCommit, Router: o.Router,
	})
	if err != nil {
		return nil, err
	}
	st.d = d
	for i, p := range d.Partitions() {
		st.shards[i] = &Shard{ID: i, t: p.Tree(), d: p}
	}
	return st, nil
}

// Router returns the store's router.
func (st *Store) Router() Router { return st.router }

// NumShards returns the partition count.
func (st *Store) NumShards() int { return len(st.shards) }

// Shards returns the shards.
func (st *Store) Shards() []*Shard { return st.shards }

// Durable reports whether the store runs under a WAL.
func (st *Store) Durable() bool { return st.d != nil }

// RecoveryStats reports the recovery work done at Open (zero in memory).
func (st *Store) RecoveryStats() bwtree.RecoveryStats {
	if st.d == nil {
		return bwtree.RecoveryStats{}
	}
	return st.d.RecoveryStats()
}

// Checkpoint takes an epoch-consistent checkpoint of every shard into
// the one snapshot. A no-op for in-memory stores.
func (st *Store) Checkpoint() error {
	if st.d == nil {
		return nil
	}
	_, err := st.d.Checkpoint()
	return err
}

// Crash simulates a power failure of the durable store's log (see
// bwtree.Durable.Crash). A no-op for in-memory stores.
func (st *Store) Crash() error {
	if st.d == nil {
		return nil
	}
	return st.d.Crash()
}

// Close releases every shard (flushing the durable log first).
func (st *Store) Close() error {
	if st.d != nil {
		return st.d.Close()
	}
	for _, sh := range st.shards {
		sh.t.Close()
	}
	return nil
}

// Stats sums every shard's tree counters into one aggregate.
func (st *Store) Stats() bwtree.Stats {
	var agg bwtree.Stats
	for _, sh := range st.shards {
		s := sh.t.Stats()
		agg.Ops += s.Ops
		agg.Aborts += s.Aborts
		agg.Consolidations += s.Consolidations
		agg.Splits += s.Splits
		agg.Merges += s.Merges
		agg.SlabFull += s.SlabFull
		agg.PointerChases += s.PointerChases
		agg.CASFailures += s.CASFailures
		agg.LeafSlabUsed += s.LeafSlabUsed
		agg.LeafSlabCap += s.LeafSlabCap
		agg.InnerSlabUsed += s.InnerSlabUsed
		agg.InnerSlabCap += s.InnerSlabCap
		agg.BatchLeafHits += s.BatchLeafHits
		agg.BatchParentHits += s.BatchParentHits
		agg.InPlaceUpdates += s.InPlaceUpdates
		agg.GC.Retired += s.GC.Retired
		agg.GC.Reclaimed += s.GC.Reclaimed
		agg.GC.Advances += s.GC.Advances
		if s.GC.EpochLag > agg.GC.EpochLag {
			agg.GC.EpochLag = s.GC.EpochLag
		}
	}
	return agg
}

// Count sums the exact pair count of every shard (quiescent only).
func (st *Store) Count() int {
	n := 0
	for _, sh := range st.shards {
		n += sh.t.Count()
	}
	return n
}

// Validate runs structural validation on every shard.
func (st *Store) Validate() error {
	for _, sh := range st.shards {
		if err := sh.t.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.ID, err)
		}
	}
	return nil
}
