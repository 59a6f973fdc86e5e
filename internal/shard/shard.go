package shard

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/bwtree"
	"repro/internal/obs"
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
	// WALDir, when non-empty, makes the store one bwtree.Durable in
	// WALDir whose partitions are the shards (see
	// bwtree.DurableOptions.Router): a commit spanning shards is one
	// record on its one log. Recovery loads the shards in parallel at
	// Open.
	WALDir string
	// SyncOnCommit is the acknowledged-write guarantee (see
	// bwtree.DurableOptions).
	SyncOnCommit bool
}

// Shard is one partition's view: its number and its tree.
type Shard struct {
	ID int
	t  *bwtree.Tree
}

// Tree exposes the shard's tree for stats and validation.
func (sh *Shard) Tree() *bwtree.Tree { return sh.t }

// Store is a set of per-core Bw-Tree shards behind one Router. All
// cross-shard coordination lives here; inside a shard the tree's
// latch-free protocols run exactly as in the single-tree deployment. A
// durable store's partitions belong to its bwtree.Durable, which the
// Store reads them from.
type Store struct {
	opts   Options
	router Router
	trees  []*bwtree.Tree  // indexed by shard; d.Trees() when durable
	d      *bwtree.Durable // nil in memory
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
	st := &Store{opts: o, router: o.Router}
	if o.WALDir == "" {
		for range o.Shards {
			st.trees = append(st.trees, bwtree.New(o.Tree))
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
	if st.d, err = bwtree.OpenDurable(o.WALDir, bwtree.DurableOptions{
		Tree: o.Tree, SyncOnCommit: o.SyncOnCommit, Router: o.Router,
	}); err != nil {
		return nil, err
	}
	st.trees = st.d.Trees()
	return st, nil
}

// Router returns the store's router.
func (st *Store) Router() Router { return st.router }

// NumShards returns the partition count.
func (st *Store) NumShards() int { return len(st.trees) }

// Shards returns a view of every shard, indexed by shard number.
func (st *Store) Shards() []*Shard {
	shards := make([]*Shard, len(st.trees))
	for i, t := range st.trees {
		shards[i] = &Shard{ID: i, t: t}
	}
	return shards
}

// Durable returns the durable store the shards are partitions of; nil in
// memory.
func (st *Store) Durable() *bwtree.Durable { return st.d }

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
	for _, t := range st.trees {
		t.Close()
	}
	return nil
}

// Stats sums every shard's tree counters into one aggregate (see
// bwtree.SumStats).
func (st *Store) Stats() bwtree.Stats { return bwtree.SumStats(st.trees) }

// DebugVars builds the aggregated observability source for a sharded
// store: the partitioned debug surface over its shards' trees (see
// bwtree.PartitionedDebugVars), with the one log's health surface when
// durable (bwtree.DurableDebugVars). The result plugs into
// obs.Serve/obs.Mux exactly like a single tree's DebugVars.
func DebugVars(st *Store) obs.Vars {
	if st.d != nil {
		return bwtree.DurableDebugVars(st.d)
	}
	return bwtree.PartitionedDebugVars(st.trees)
}

// Count sums the exact pair count of every shard (quiescent only).
func (st *Store) Count() int {
	n := 0
	for _, t := range st.trees {
		n += t.Count()
	}
	return n
}

// Validate runs structural validation on every shard.
func (st *Store) Validate() error {
	for i, t := range st.trees {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
