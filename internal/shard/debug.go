package shard

import (
	"fmt"

	"repro/bwtree"
	"repro/internal/obs"
)

// DebugVars builds the aggregated observability source for a sharded
// store: tree counters and gauges summed (or maxed, where a sum lies —
// epoch lag) across shards, per-shard op counters for skew diagnosis, the
// one log's counters, gauges and distributions, merged latency and
// chain-depth histograms, concatenated flight-recorder and phase-trace feeds, and
// an on-demand /debug/shape walking every shard. The result plugs into
// obs.Serve/obs.Mux exactly like a single tree's DebugVars.
func DebugVars(st *Store) obs.Vars {
	v := obs.Vars{
		Counters: func() map[string]uint64 {
			s := st.Stats()
			m := map[string]uint64{
				"ops":              s.Ops,
				"aborts":           s.Aborts,
				"consolidations":   s.Consolidations,
				"splits":           s.Splits,
				"merges":           s.Merges,
				"slab_full":        s.SlabFull,
				"pointer_chases":   s.PointerChases,
				"cas_failures":     s.CASFailures,
				"in_place_updates": s.InPlaceUpdates,
				"gc_retired":       s.GC.Retired,
				"gc_reclaimed":     s.GC.Reclaimed,
				"gc_advances":      s.GC.Advances,
			}
			// Per-shard op counters surface routing skew: a hot shard shows
			// up as one counter running away from the others.
			for _, sh := range st.shards {
				m[fmt.Sprintf("shard%02d_ops", sh.ID)] = sh.t.Stats().Ops
			}
			if st.d != nil {
				ws := st.d.WALStats()
				m["wal_appends"] = ws.Appends
				m["wal_syncs"] = ws.Syncs
				m["wal_bytes"] = ws.Bytes
				m["wal_segments"] = ws.Segments
			}
			return m
		},
		Gauges: func() map[string]float64 {
			s := st.Stats()
			m := map[string]float64{
				"shards":              float64(st.NumShards()),
				"abort_rate":          s.AbortRate(),
				"leaf_prealloc_util":  s.LeafPreallocUtilization(),
				"inner_prealloc_util": s.InnerPreallocUtilization(),
				"epoch_lag":           float64(s.GC.EpochLag),
			}
			var alloc, free, live, capacity float64
			for _, sh := range st.shards {
				mt := sh.t.MappingStats()
				alloc += float64(mt.Allocated)
				free += float64(mt.Free)
				live += float64(mt.Live)
				capacity += float64(mt.Capacity)
			}
			m["mapping_allocated"] = alloc
			m["mapping_free"] = free
			m["mapping_live"] = live
			if capacity > 0 {
				m["mapping_occupancy"] = live / capacity
			}
			if st.d != nil {
				ws := st.d.WALStats()
				m["wal_queue_bytes"] = float64(ws.QueueBytes)
				m["wal_queue_records"] = float64(ws.QueueRecords)
				m["wal_pending_lsns"] = float64(ws.AppendedLSN - ws.DurableLSN)
				m["checkpoint_age_seconds"] = st.d.CheckpointAge().Seconds()
			}
			return m
		},
		Shape: func() map[string]any {
			// Full per-shard walks: on-demand only (served at /debug/shape).
			shapes := make([]map[string]any, 0, len(st.shards))
			var inner, leaves uint64
			var pooled, pooledBytes int64
			height := 0
			for _, sh := range st.shards {
				ss := sh.t.StructureStats()
				inner += uint64(ss.InnerNodes)
				leaves += uint64(ss.LeafNodes)
				pooled += ss.PooledSlabs
				pooledBytes += ss.PooledSlabBytes
				if ss.Height > height {
					height = ss.Height
				}
				shapes = append(shapes, map[string]any{
					"shard":              sh.ID,
					"height":             ss.Height,
					"inner_nodes":        ss.InnerNodes,
					"leaf_nodes":         ss.LeafNodes,
					"avg_leaf_chain_len": ss.AvgLeafChainLen,
					"avg_leaf_node_size": ss.AvgLeafNodeSize,
					"arena_bytes":        ss.ArenaBytes,
					"inner_arena_bytes":  ss.InnerArenaBytes,
					"pooled_slabs":       ss.PooledSlabs,
					"pooled_slab_bytes":  ss.PooledSlabBytes,
				})
			}
			return map[string]any{
				"shards":            shapes,
				"height":            height,
				"inner_nodes":       inner,
				"leaf_nodes":        leaves,
				"pooled_slabs":      pooled,
				"pooled_slab_bytes": pooledBytes,
			}
		},
	}
	opts := st.opts.Tree
	if opts.LatencyHistograms {
		v.Latency = func() *obs.LatencySnapshot {
			agg := &obs.LatencySnapshot{}
			for _, sh := range st.shards {
				if lat := sh.t.Latencies(); lat != nil {
					agg.Merge(lat)
				}
			}
			return agg
		}
	}
	if opts.TraceRingSize > 0 {
		v.Trace = func() []obs.Event {
			var evs []obs.Event
			for _, sh := range st.shards {
				evs = append(evs, sh.t.TraceEvents()...)
			}
			return evs
		}
		v.TraceDropped = func() uint64 {
			var n uint64
			for _, sh := range st.shards {
				n += sh.t.TraceDropped()
			}
			return n
		}
	}
	if opts.PhaseSampleEvery > 0 || opts.FlightRecorderSize > 0 {
		v.MetricHists = func() []obs.HistFeed {
			var depth obs.HistSnapshot
			for _, sh := range st.shards {
				snap := sh.t.ChainDepths()
				depth.Merge(&snap)
			}
			feeds := []obs.HistFeed{{
				Name: "bwtree_chain_depth",
				Help: "Leaf delta-chain depth observed per operation, all shards.",
				Snap: depth,
			}}
			if st.d != nil {
				ws := st.d.WALStats()
				feeds = append(feeds,
					obs.HistFeed{
						Name: "bwtree_wal_fsync_seconds",
						Help: "WAL fsync wall time per group commit.",
						Snap: ws.Fsync, Seconds: true,
					},
					obs.HistFeed{
						Name: "bwtree_wal_batch_records",
						Help: "Records committed per WAL fsync.",
						Snap: ws.Batch,
					})
			}
			return feeds
		}
	}
	if opts.FlightRecorderSize > 0 {
		v.Flight = func(n int) []obs.OpSummary {
			var sums []obs.OpSummary
			for _, sh := range st.shards {
				sums = append(sums, sh.t.FlightRecent(n)...)
			}
			return sums
		}
	}
	if opts.PhaseSampleEvery > 0 {
		v.PhaseTraces = func() []obs.OpTrace {
			var trs []obs.OpTrace
			for _, sh := range st.shards {
				trs = append(trs, sh.t.PhaseTraces()...)
			}
			return trs
		}
	}
	return v
}

// PhaseTraces drains every shard's sampled phase traces (for -trace-out
// style exports outside the debug server).
func (st *Store) PhaseTraces() []bwtree.OpTrace {
	var trs []bwtree.OpTrace
	for _, sh := range st.shards {
		trs = append(trs, sh.t.PhaseTraces()...)
	}
	return trs
}
