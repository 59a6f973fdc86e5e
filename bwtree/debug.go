package bwtree

import "repro/internal/obs"

// LatencySnapshot is a mergeable point-in-time copy of a tree's
// per-operation-class latency histograms (requires
// Options.LatencyHistograms). Obtain one with Tree.Latencies.
type LatencySnapshot = obs.LatencySnapshot

// TraceEvent is one structural event (split, merge, consolidate, abort)
// drained from the sessions' event rings (requires Options.TraceRingSize
// > 0). Obtain them with Tree.TraceEvents.
type TraceEvent = obs.Event

// DebugServer is a live HTTP debug surface over one tree.
type DebugServer = obs.Server

// OpSummary is one flight-recorder entry (requires
// Options.FlightRecorderSize > 0). Obtain them with Tree.FlightRecent.
type OpSummary = obs.OpSummary

// OpTrace is one sampled operation's phase breakdown (requires
// Options.PhaseSampleEvery > 0). Obtain them with Tree.PhaseTraces and
// export with WriteChromeTrace.
type OpTrace = obs.OpTrace

// WriteChromeTrace renders sampled phase traces as Chrome trace-event
// JSON, loadable in chrome://tracing and Perfetto.
var WriteChromeTrace = obs.WriteChromeTrace

// DebugVars builds the observability data source for t: counters and
// gauges from Stats, plus latency and trace feeds when the tree was
// built with them enabled. Useful for mounting the debug surface into an
// existing HTTP server via obs.Mux.
func DebugVars(t *Tree) obs.Vars {
	v := obs.Vars{
		Counters: func() map[string]uint64 {
			st := t.Stats()
			return map[string]uint64{
				"ops":              st.Ops,
				"aborts":           st.Aborts,
				"consolidations":   st.Consolidations,
				"splits":           st.Splits,
				"merges":           st.Merges,
				"slab_full":        st.SlabFull,
				"pointer_chases":   st.PointerChases,
				"cas_failures":     st.CASFailures,
				"in_place_updates": st.InPlaceUpdates,
				"gc_retired":       st.GC.Retired,
				"gc_reclaimed":     st.GC.Reclaimed,
				"gc_advances":      st.GC.Advances,
			}
		},
		Gauges: func() map[string]float64 {
			st := t.Stats()
			mt := t.MappingStats()
			return map[string]float64{
				"abort_rate":          st.AbortRate(),
				"leaf_prealloc_util":  st.LeafPreallocUtilization(),
				"inner_prealloc_util": st.InnerPreallocUtilization(),
				"epoch_lag":           float64(st.GC.EpochLag),
				"mapping_allocated":   float64(mt.Allocated),
				"mapping_free":        float64(mt.Free),
				"mapping_live":        float64(mt.Live),
				"mapping_occupancy":   float64(mt.Live) / float64(mt.Capacity),
			}
		},
	}
	// Served on demand at /debug/shape only: the walk visits every node,
	// which is far too expensive for every /debug/stats read.
	v.Shape = func() map[string]any {
		st := t.StructureStats()
		return map[string]any{
			"height":               st.Height,
			"inner_nodes":          st.InnerNodes,
			"leaf_nodes":           st.LeafNodes,
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
		}
	}
	if t.Options().LatencyHistograms {
		v.Latency = t.Latencies
	}
	if t.Options().TraceRingSize > 0 {
		v.Trace = t.TraceEvents
		v.TraceDropped = t.TraceDropped
	}
	deepOn := t.Options().PhaseSampleEvery > 0 || t.Options().FlightRecorderSize > 0
	if deepOn {
		v.MetricHists = func() []obs.HistFeed {
			return []obs.HistFeed{{
				Name: "bwtree_chain_depth",
				Help: "Leaf delta-chain depth observed per operation.",
				Snap: t.ChainDepths(),
			}}
		}
	}
	if t.Options().FlightRecorderSize > 0 {
		v.Flight = t.FlightRecent
	}
	if t.Options().PhaseSampleEvery > 0 {
		v.PhaseTraces = t.PhaseTraces
	}
	return v
}

// DurableDebugVars is DebugVars over the wrapped tree plus the
// durability layer's health surface: WAL counters, flush-queue depth,
// group-commit batch and fsync-latency distributions, pending (appended
// but not yet durable) LSNs, and checkpoint age.
func DurableDebugVars(d *Durable) obs.Vars {
	v := DebugVars(d.Tree())
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
