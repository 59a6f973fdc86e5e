package bwtree

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/obs"
)

// The types below are recorded only by trees built with Options.Trace,
// the one switch of the observability pipeline.

// LatencySnapshot is a mergeable point-in-time copy of a tree's
// per-operation-class latency histograms. Obtain one with Tree.Latencies.
type LatencySnapshot = obs.LatencySnapshot

// TraceEvent is one structural event (split, merge, consolidate, abort)
// drained from the sessions' event rings. Obtain them with
// Tree.TraceEvents.
type TraceEvent = obs.Event

// DebugServer is a live HTTP debug surface over one tree.
type DebugServer = obs.Server

// OpSummary is one flight-recorder entry. Obtain them with
// Tree.FlightRecent.
type OpSummary = obs.OpSummary

// OpTrace is one sampled operation's phase breakdown. Obtain them with
// Tree.PhaseTraces and export with WriteChromeTrace.
type OpTrace = obs.OpTrace

// WriteChromeTrace renders sampled phase traces as Chrome trace-event
// JSON, loadable in chrome://tracing and Perfetto.
var WriteChromeTrace = obs.WriteChromeTrace

// DebugVars builds the observability data source for t: counters and
// gauges from Stats, plus the latency, event, chain-depth, flight and
// phase-trace feeds (and the phase_traces_dropped counter) when the tree
// was built with Options.Trace. Useful for mounting the debug surface
// into an existing HTTP server via obs.Mux.
func DebugVars(t *Tree) obs.Vars { return treesVars([]*Tree{t}, false) }

// SumStats aggregates the counters of trees that partition one key space:
// every counter summed, epoch lag maxed.
func SumStats(trees []*Tree) Stats {
	var agg Stats
	for _, t := range trees {
		s := t.Stats()
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
		agg.SeqWaits += s.SeqWaits
		agg.GC.Retired += s.GC.Retired
		agg.GC.Reclaimed += s.GC.Reclaimed
		agg.GC.Advances += s.GC.Advances
		agg.GC.EpochLag = max(agg.GC.EpochLag, s.GC.EpochLag)
	}
	return agg
}

// shapeMap renders one shape for /debug/shape. Node counts are uint64, as
// the sharded store's summed shape always reported them.
func shapeMap(st StructureStats) map[string]any {
	return map[string]any{
		"height":               st.Height,
		"inner_nodes":          uint64(st.InnerNodes),
		"leaf_nodes":           uint64(st.LeafNodes),
		"avg_inner_chain_len":  st.AvgInnerChainLen,
		"avg_leaf_chain_len":   st.AvgLeafChainLen,
		"avg_inner_node_size":  st.AvgInnerNodeSize,
		"avg_leaf_node_size":   st.AvgLeafNodeSize,
		"inner_prealloc_util":  st.InnerPreallocUse,
		"leaf_prealloc_util":   st.LeafPreallocUse,
		"arena_bytes":          st.ArenaBytes,
		"inner_arena_bytes":    st.InnerArenaBytes,
		"key_bytes":            st.KeyBytes,
		"gc_ptrs_per_leaf":     st.GCPtrsPerLeaf,
		"gc_ptrs_per_inner":    st.GCPtrsPerInner,
		"leaf_bytes_per_entry": st.LeafBytesPerEntry,
		"leaf_slab_bytes":      st.LeafSlabBytes,
		"inner_slab_bytes":     st.InnerSlabBytes,
		"pooled_slabs":         st.PooledSlabs,
		"pooled_slab_bytes":    st.PooledSlabBytes,
		"mapping_bytes":        st.MappingBytes,
	}
}

// treesVars is the one debug surface over a store's trees, all built with
// the same Options; DebugVars is its one-tree case. Over several
// partitions counters are summed (and epoch lag maxed, where a sum lies),
// histograms merged, and event, flight and phase feeds concatenated;
// perPart adds per-partition op counters (shardNN_ops, which surface
// routing skew), a partition-count gauge (shards) and a per-partition
// list in the shape (shards).
func treesVars(trees []*Tree, perPart bool) obs.Vars {
	traced := trees[0].Options().Trace
	v := obs.Vars{
		Counters: func() map[string]uint64 {
			st := SumStats(trees)
			m := map[string]uint64{
				"ops":              st.Ops,
				"aborts":           st.Aborts,
				"consolidations":   st.Consolidations,
				"splits":           st.Splits,
				"merges":           st.Merges,
				"slab_full":        st.SlabFull,
				"pointer_chases":   st.PointerChases,
				"cas_failures":     st.CASFailures,
				"in_place_updates": st.InPlaceUpdates,
				"seq_waits":        st.SeqWaits,
				"gc_retired":       st.GC.Retired,
				"gc_reclaimed":     st.GC.Reclaimed,
				"gc_advances":      st.GC.Advances,
			}
			if perPart {
				for i, t := range trees {
					m[fmt.Sprintf("shard%02d_ops", i)] = t.Stats().Ops
				}
			}
			if traced {
				// Sampled phase traces lost to ring wraparound before
				// /debug/phasetrace drained them.
				m["phase_traces_dropped"] = 0
				for _, t := range trees {
					m["phase_traces_dropped"] += t.PhaseTracesDropped()
				}
			}
			return m
		},
		Gauges: func() map[string]float64 {
			st := SumStats(trees)
			var mt mapping.TableStats
			for _, t := range trees {
				s := t.MappingStats()
				mt.Allocated += s.Allocated
				mt.Free += s.Free
				mt.Live += s.Live
				mt.Capacity += s.Capacity
			}
			m := map[string]float64{
				"abort_rate":          st.AbortRate(),
				"leaf_prealloc_util":  st.LeafPreallocUtilization(),
				"inner_prealloc_util": st.InnerPreallocUtilization(),
				"epoch_lag":           float64(st.GC.EpochLag),
				"mapping_allocated":   float64(mt.Allocated),
				"mapping_free":        float64(mt.Free),
				"mapping_live":        float64(mt.Live),
				"mapping_occupancy":   float64(mt.Live) / float64(mt.Capacity),
			}
			if perPart {
				m["shards"] = float64(len(trees))
			}
			return m
		},
		// Served on demand at /debug/shape only: the walk visits every
		// node, which is far too expensive for every /debug/stats read.
		Shape: func() map[string]any {
			if !perPart {
				return shapeMap(trees[0].StructureStats())
			}
			// The summary sums the counts (uint64) and bytes (int64) and
			// keeps the tallest height (int); averages (float64) do not
			// sum, so only the per-partition shapes carry them.
			m := map[string]any{}
			parts := make([]map[string]any, len(trees))
			for i, t := range trees {
				parts[i] = shapeMap(t.StructureStats())
				for k, v := range parts[i] {
					switch v := v.(type) {
					case uint64:
						sum, _ := m[k].(uint64)
						m[k] = sum + v
					case int64:
						sum, _ := m[k].(int64)
						m[k] = sum + v
					case int:
						h, _ := m[k].(int)
						m[k] = max(h, v)
					}
				}
				parts[i]["shard"] = i
			}
			m["shards"] = parts
			return m
		},
	}
	if !traced {
		return v
	}
	v.Latency = func() *obs.LatencySnapshot {
		agg := &obs.LatencySnapshot{}
		for _, t := range trees {
			agg.Merge(t.Latencies())
		}
		return agg
	}
	v.Trace = func() []obs.Event { return concat(trees, (*Tree).TraceEvents) }
	v.TraceDropped = func() uint64 {
		var n uint64
		for _, t := range trees {
			n += t.TraceDropped()
		}
		return n
	}
	v.MetricHists = func() []obs.HistFeed {
		var depth obs.HistSnapshot
		for _, t := range trees {
			snap := t.ChainDepths()
			depth.Merge(&snap)
		}
		return []obs.HistFeed{{
			Name: "bwtree_chain_depth",
			Help: "Leaf delta-chain depth observed per operation.",
			Snap: depth,
		}}
	}
	v.Flight = func(n int) []obs.OpSummary {
		return concat(trees, func(t *Tree) []obs.OpSummary { return t.FlightRecent(n) })
	}
	v.PhaseTraces = func() []obs.OpTrace { return concat(trees, (*Tree).PhaseTraces) }
	return v
}

// concat gathers one feed from every tree.
func concat[E any](trees []*Tree, feed func(*Tree) []E) []E {
	var out []E
	for _, t := range trees {
		out = append(out, feed(t)...)
	}
	return out
}

// DurableDebugVars is the debug surface over every partition of d (see
// DebugVars and treesVars; a store with a Router reports per-partition
// keys) plus, when d has a log, the durability layer's health surface:
// WAL counters, flush-queue depth, group-commit batch and fsync-latency
// distributions, pending (appended but not yet durable) LSNs, and
// checkpoint age.
func DurableDebugVars(d *Durable) obs.Vars {
	v := treesVars(d.trees, d.o.Router != nil)
	if d.w == nil {
		return v
	}
	treeCounters, treeGauges, treeHists := v.Counters, v.Gauges, v.MetricHists
	v.Counters = func() map[string]uint64 {
		m := treeCounters()
		ws := d.WALStats()
		m["wal_appends"] = ws.Appends
		m["wal_syncs"] = ws.Syncs
		m["wal_bytes"] = ws.Bytes
		m["wal_segments"] = ws.Segments
		return m
	}
	v.Gauges = func() map[string]float64 {
		m := treeGauges()
		ws := d.WALStats()
		m["wal_queue_bytes"] = float64(ws.QueueBytes)
		m["wal_queue_records"] = float64(ws.QueueRecords)
		m["wal_pending_lsns"] = float64(ws.AppendedLSN - ws.DurableLSN)
		m["checkpoint_age_seconds"] = d.CheckpointAge().Seconds()
		return m
	}
	v.MetricHists = func() []obs.HistFeed {
		var feeds []obs.HistFeed
		if treeHists != nil {
			feeds = treeHists()
		}
		ws := d.WALStats()
		return append(feeds,
			obs.HistFeed{
				Name: "bwtree_wal_fsync_seconds",
				Help: "WAL fsync wall time per group commit.",
				Snap: ws.Fsync, Seconds: true,
			},
			obs.HistFeed{
				Name: "bwtree_wal_batch_records",
				Help: "Records committed per WAL fsync (group-commit batch size).",
				Snap: ws.Batch,
			})
	}
	return v
}

// ServeDurableDebug is ServeDebug for a durable tree: the same surface
// extended with the WAL and checkpoint health gauges.
func ServeDurableDebug(d *Durable, addr string) (*DebugServer, error) {
	return obs.Serve(addr, DurableDebugVars(d))
}

// ServeDebug starts an HTTP debug server for t on addr (host:port; port
// 0 picks a free one): Go's standard expvar vars under /debug/vars,
// pprof under /debug/pprof/, Prometheus text at /metrics, and JSON
// endpoints /debug/stats (counters, gauges, and per-second rates since
// the previous read), /debug/latency, /debug/shape, and /debug/trace.
// Close the returned server when done.
func ServeDebug(t *Tree, addr string) (*DebugServer, error) {
	return obs.Serve(addr, DebugVars(t))
}
