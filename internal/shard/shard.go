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
	// WALDir, when non-empty, gives the store's bwtree.Durable its log
	// in WALDir (see bwtree.DurableOptions.Router): a commit spanning
	// shards is one record on the one log. Recovery loads the shards in
	// parallel at Open. Empty means a volatile store.
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
// latch-free protocols run exactly as in the single-tree deployment. The
// shards are the partitions of one bwtree.Durable, logged or not, which
// owns their trees and stripe tables and gives every writer one commit
// path.
type Store struct {
	router Router
	d      *bwtree.Durable
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
	if o.WALDir != "" {
		// The per-shard log directories (shard-NNN) of the layout that
		// gave every shard its own log would otherwise open as an empty
		// store.
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
	}
	d, err := bwtree.OpenDurable(o.WALDir, bwtree.DurableOptions{
		Tree: o.Tree, SyncOnCommit: o.SyncOnCommit, Router: o.Router,
	})
	if err != nil {
		return nil, err
	}
	return &Store{router: o.Router, d: d}, nil
}

// Router returns the store's router.
func (st *Store) Router() Router { return st.router }

// NumShards returns the partition count.
func (st *Store) NumShards() int { return len(st.d.Trees()) }

// Shards returns a view of every shard, indexed by shard number.
func (st *Store) Shards() []*Shard {
	shards := make([]*Shard, st.NumShards())
	for i, t := range st.d.Trees() {
		shards[i] = &Shard{ID: i, t: t}
	}
	return shards
}

// Durable returns the store the shards are partitions of; it has no log
// when the store is in memory.
func (st *Store) Durable() *bwtree.Durable { return st.d }

// RecoveryStats reports the recovery work done at Open (zero in memory).
func (st *Store) RecoveryStats() bwtree.RecoveryStats { return st.d.RecoveryStats() }

// Checkpoint takes an epoch-consistent checkpoint of every shard into
// the one snapshot (see bwtree.Durable.Checkpoint; a no-op in memory).
func (st *Store) Checkpoint() error { _, err := st.d.Checkpoint(); return err }

// Crash simulates a power failure of the store's log (see
// bwtree.Durable.Crash; a no-op in memory).
func (st *Store) Crash() error { return st.d.Crash() }

// Close releases every shard (flushing the log first, if any).
func (st *Store) Close() error { return st.d.Close() }

// Stats sums every shard's tree counters into one aggregate (see
// bwtree.SumStats).
func (st *Store) Stats() bwtree.Stats { return bwtree.SumStats(st.d.Trees()) }

// DebugVars builds the aggregated observability source for a sharded
// store: bwtree.DurableDebugVars over its one Durable, which carries the
// log's health surface only when there is a log. The result plugs into
// obs.Serve/obs.Mux exactly like a single tree's DebugVars.
func DebugVars(st *Store) obs.Vars { return bwtree.DurableDebugVars(st.d) }

// Count sums the exact pair count of every shard (quiescent only).
func (st *Store) Count() int {
	n := 0
	for _, t := range st.d.Trees() {
		n += t.Count()
	}
	return n
}

// Validate runs structural validation on every shard.
func (st *Store) Validate() error {
	for i, t := range st.d.Trees() {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
