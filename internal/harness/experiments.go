package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// Scale controls experiment sizes. The defaults (1M keys, 2M ops) run a
// full sweep on a laptop in minutes; the paper's scale is ~52M keys.
type Scale struct {
	Keys    int
	Ops     int
	Threads int
	Seed    uint64
}

// DefaultScale returns laptop-friendly sizes.
func DefaultScale() Scale {
	threads := runtime.GOMAXPROCS(0)
	if threads > 20 {
		threads = 20 // the paper's single-socket configuration
	}
	return Scale{Keys: 1_000_000, Ops: 2_000_000, Threads: threads, Seed: 2018}
}

// Experiment is a runnable reproduction of one paper table or figure.
type Experiment struct {
	Name  string
	Brief string
	Run   func(w io.Writer, sc Scale)
}

// Experiments returns every experiment, keyed as in DESIGN.md.
func Experiments() []Experiment {
	return []Experiment{
		{"fig8", "Delta-record pre-allocation on/off, single thread", Fig8},
		{"fig9", "Fast consolidation & search shortcuts on/off, single thread", Fig9},
		{"fig10", "Centralized vs decentralized GC scaling", Fig10},
		{"fig11", "Delta chain length x node size sweep", Fig11},
		{"table2", "OpenBw-Tree structural statistics", Table2},
		{"fig12a", "Optimizations applied one at a time", Fig12a},
		{"fig12b", "Bw-Tree vs OpenBw-Tree, all workloads", Fig12b},
		{"fig13", "Six-index comparison, single thread", Fig13},
		{"fig14", "Six-index comparison, multi-threaded", Fig14},
		{"fig15", "Peak memory usage", Fig15},
		{"table3", "Microbenchmark counters (software proxies)", Table3},
		{"fig16", "High-contention (Mono-HC) insert throughput", Fig16},
		{"fig17", "Normal vs high-contention Insert-only", Fig17},
		{"fig18", "Feature decomposition (-DC, -CAS, -MT, -DU)", Fig18},
		{"latency", "Operation latency percentiles, Bw-Tree vs OpenBw-Tree", Latency},
		{"checked", "History-checked correctness sweep: all indexes, three mixes, both GC schemes", Checked},
	}
}

var keyTypes3 = []ycsb.KeyType{ycsb.MonoInt, ycsb.RandInt, ycsb.Email}

// onOffExperiment renders a Fig. 8/9-style on/off comparison of two
// Bw-Tree option sets over the 4x3 workload/key grid, single-threaded.
func onOffExperiment(w io.Writer, sc Scale, title, offLabel, onLabel string, off, on core.Options) {
	for _, kt := range keyTypes3 {
		tbl := NewTable(fmt.Sprintf("%s — %s keys (Mops/s, 1 thread)", title, kt), offLabel, onLabel)
		for _, wl := range ycsb.AllWorkloads() {
			cfg := Config{Workload: wl, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: 1, Seed: sc.Seed}
			a := Run(func() index.Index { return index.NewBwTreeWith("off", off) }, cfg)
			b := Run(func() index.Index { return index.NewBwTreeWith("on", on) }, cfg)
			tbl.AddFloats(wl.String(), a.RunMops, b.RunMops)
		}
		tbl.WriteTo(w)
	}
}

// Fig8 reproduces the delta pre-allocation study (§5.2).
func Fig8(w io.Writer, sc Scale) {
	off := core.DefaultOptions()
	off.Preallocate = false
	on := core.DefaultOptions()
	onOffExperiment(w, sc, "Fig. 8: Delta Record Pre-allocation",
		"IndependentAlloc", "PreAlloc", off, on)
}

// Fig9 reproduces the fast consolidation + search shortcut study (§5.3).
func Fig9(w io.Writer, sc Scale) {
	off := core.DefaultOptions()
	off.FastConsolidate = false
	off.SearchShortcuts = false
	on := core.DefaultOptions()
	onOffExperiment(w, sc, "Fig. 9: Fast Consolidation & Search Shortcuts",
		"No FC & SS", "FC & SS", off, on)
}

// Fig10 reproduces the GC scalability study (§5.4): Read/Update
// throughput as worker threads grow, centralized vs decentralized epochs.
func Fig10(w io.Writer, sc Scale) {
	central := core.DefaultOptions()
	central.GC = core.GCCentralized
	distributed := core.DefaultOptions()
	for _, kt := range keyTypes3 {
		tbl := NewTable(fmt.Sprintf("Fig. 10: GC Scalability — %s keys, Read/Update (Mops/s)", kt),
			"CentralizedGC", "DistributedGC")
		for _, threads := range threadSteps(sc.Threads) {
			cfg := Config{Workload: ycsb.ReadUpdate, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: threads, Seed: sc.Seed}
			a := Run(func() index.Index { return index.NewBwTreeWith("central", central) }, cfg)
			b := Run(func() index.Index { return index.NewBwTreeWith("dist", distributed) }, cfg)
			tbl.AddFloats(fmt.Sprintf("%d threads", threads), a.RunMops, b.RunMops)
		}
		tbl.WriteTo(w)
	}
}

func threadSteps(max int) []int {
	steps := []int{1, 2, 4, 8, 12, 16, 20}
	var out []int
	for _, s := range steps {
		if s <= max {
			out = append(out, s)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Fig11 reproduces the chain length x node size sweep (§5.5) on Mono-Int
// keys with the full thread count.
func Fig11(w io.Writer, sc Scale) {
	nodeSizes := []int{32, 64, 128}
	chainLens := []int{8, 16, 24, 32, 40}
	for _, wl := range []ycsb.Workload{ycsb.InsertOnly, ycsb.ReadUpdate} {
		cols := make([]string, len(nodeSizes))
		for i, n := range nodeSizes {
			cols[i] = fmt.Sprintf("node=%d", n)
		}
		tbl := NewTable(fmt.Sprintf("Fig. 11: Chain Length & Node Size — Mono-Int %s (Mops/s, %d threads)", wl, sc.Threads), cols...)
		for _, cl := range chainLens {
			vals := make([]float64, len(nodeSizes))
			for i, ns := range nodeSizes {
				opts := core.DefaultOptions()
				opts.LeafNodeSize = ns
				opts.LeafChainLength = cl
				opts.LeafMergeSize = ns / 4
				cfg := Config{Workload: wl, KeyType: ycsb.MonoInt, Keys: sc.Keys, Ops: sc.Ops, Threads: sc.Threads, Seed: sc.Seed}
				vals[i] = Run(func() index.Index { return index.NewBwTreeWith("bw", opts) }, cfg).RunMops
			}
			tbl.AddFloats(fmt.Sprintf("chain=%d", cl), vals...)
		}
		tbl.WriteTo(w)
	}
}

// Table2 reproduces the OpenBw-Tree statistics table: chain lengths, node
// sizes, abort rate, and pre-allocation utilization after Insert-only.
func Table2(w io.Writer, sc Scale) {
	kts := []ycsb.KeyType{ycsb.MonoInt, ycsb.RandInt, ycsb.MonoHC}
	cols := make([]string, len(kts))
	for i, kt := range kts {
		cols[i] = kt.String()
	}
	tbl := NewTable(fmt.Sprintf("Table 2: OpenBw-Tree Statistics — Insert-only, %d threads", sc.Threads), cols...)

	type snap struct {
		st  core.StructureStats
		sts core.Stats
	}
	snaps := make([]snap, len(kts))
	for i, kt := range kts {
		mk := func() index.Index { return index.NewOpenBwTree() }
		var idx index.Index
		if kt == ycsb.MonoHC {
			cfg := Config{Workload: ycsb.InsertOnly, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: sc.Threads, Seed: sc.Seed}
			idx = mk()
			ks := ycsb.NewKeySet(kt, 0)
			RunPhase(idx, ks, ycsb.InsertOnly, cfg.Ops, cfg.Threads, cfg.Seed)
		} else {
			idx, _ = Preload(mk, kt, sc.Keys, sc.Threads, sc.Seed)
		}
		bt := idx.(index.BwBacked).Tree()
		snaps[i] = snap{st: bt.StructureStats(), sts: bt.Stats()}
		idx.Close()
	}
	row := func(label string, f func(s snap) float64, format string) {
		cells := make([]string, len(snaps))
		for i, s := range snaps {
			cells[i] = fmt.Sprintf(format, f(s))
		}
		tbl.AddRow(label, cells...)
	}
	row("Avg. IDCL", func(s snap) float64 { return s.st.AvgInnerChainLen }, "%.2f")
	row("Avg. LDCL", func(s snap) float64 { return s.st.AvgLeafChainLen }, "%.2f")
	row("Avg. INS", func(s snap) float64 { return s.st.AvgInnerNodeSize }, "%.2f")
	row("Avg. LNS", func(s snap) float64 { return s.st.AvgLeafNodeSize }, "%.2f")
	row("Abort Rate", func(s snap) float64 { return s.sts.AbortRate() * 100 }, "%.2f%%")
	row("Avg. IPU", func(s snap) float64 { return s.sts.InnerPreallocUtilization() * 100 }, "%.2f%%")
	row("Avg. LPU", func(s snap) float64 { return s.sts.LeafPreallocUtilization() * 100 }, "%.2f%%")
	tbl.WriteTo(w)
}

// Fig12a reproduces the one-at-a-time optimization study (§5.6): starting
// from the baseline Bw-Tree, enable decentralized GC, then pre-allocation,
// then fast consolidation + shortcuts, then non-unique key support.
func Fig12a(w io.Writer, sc Scale) {
	variants := fig12aVariants()
	labels := make([]string, len(variants))
	for i := range variants {
		labels[i] = variants[i].name
	}
	tbl := NewTable("Fig. 12a: Optimization Stack — Rand-Int Read/Update (Mops/s)", labels...)
	for _, threads := range []int{1, sc.Threads} {
		vals := make([]float64, len(variants))
		for i, v := range variants {
			opts := v.opts
			cfg := Config{Workload: ycsb.ReadUpdate, KeyType: ycsb.RandInt, Keys: sc.Keys, Ops: sc.Ops, Threads: threads, Seed: sc.Seed}
			vals[i] = Run(func() index.Index { return index.NewBwTreeWith(v.name, opts) }, cfg).RunMops
		}
		tbl.AddFloats(fmt.Sprintf("%d thread(s)", threads), vals...)
	}
	tbl.WriteTo(w)
}

type namedOpts struct {
	name string
	opts core.Options
}

func fig12aVariants() []namedOpts {
	bw := core.BaselineOptions()
	gc := bw
	gc.GC = core.GCDecentralized
	pa := gc
	pa.Preallocate = true
	pa.LeafChainLength = core.DefaultOptions().LeafChainLength
	pa.InnerChainLength = core.DefaultOptions().InnerChainLength
	fc := pa
	fc.FastConsolidate = true
	fc.SearchShortcuts = true
	nk := fc
	nk.NonUnique = true
	return []namedOpts{
		{"Bw-Tree", bw}, {"+GC", gc}, {"+PA", pa}, {"+FC&SS", fc}, {"+NK", nk},
	}
}

// Fig12b compares the baseline Bw-Tree against the OpenBw-Tree on all
// four workloads with Mono-Int keys at full thread count.
func Fig12b(w io.Writer, sc Scale) {
	tbl := NewTable(fmt.Sprintf("Fig. 12b: Bw-Tree vs OpenBw-Tree — Mono-Int (%d threads, Mops/s)", sc.Threads),
		"Bw-Tree", "OpenBw-Tree")
	for _, wl := range ycsb.AllWorkloads() {
		cfg := Config{Workload: wl, KeyType: ycsb.MonoInt, Keys: sc.Keys, Ops: sc.Ops, Threads: sc.Threads, Seed: sc.Seed}
		a := Run(index.NewBaselineBwTree, cfg)
		b := Run(index.NewOpenBwTree, cfg)
		tbl.AddFloats(wl.String(), a.RunMops, b.RunMops)
	}
	tbl.WriteTo(w)
}

// sixIndexComparison renders a Fig. 13/14-style grid.
func sixIndexComparison(w io.Writer, sc Scale, threads int, title string) {
	mks := index.All()
	cols := make([]string, len(mks))
	for i, mk := range mks {
		idx := mk()
		cols[i] = idx.Name()
		idx.Close()
	}
	for _, kt := range keyTypes3 {
		tbl := NewTable(fmt.Sprintf("%s — %s keys (Mops/s, %d thread(s))", title, kt, threads), cols...)
		for _, wl := range ycsb.AllWorkloads() {
			vals := make([]float64, len(mks))
			for i, mk := range mks {
				cfg := Config{Workload: wl, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: threads, Seed: sc.Seed}
				vals[i] = Run(mk, cfg).RunMops
			}
			tbl.AddFloats(wl.String(), vals...)
		}
		tbl.WriteTo(w)
	}
}

// Fig13 is the single-threaded six-index comparison (§6.1).
func Fig13(w io.Writer, sc Scale) {
	sixIndexComparison(w, sc, 1, "Fig. 13: In-Memory Index Comparison (Single-Threaded)")
}

// Fig14 is the multi-threaded six-index comparison (§6.1).
func Fig14(w io.Writer, sc Scale) {
	sixIndexComparison(w, sc, sc.Threads, "Fig. 14: In-Memory Index Comparison (Multi-Threaded)")
}

// Fig15 measures live-heap consumption after the Read/Update workload
// (§6.1, memory usage).
func Fig15(w io.Writer, sc Scale) {
	mks := index.All()
	cols := make([]string, len(mks))
	for i, mk := range mks {
		idx := mk()
		cols[i] = idx.Name()
		idx.Close()
	}
	for _, threads := range []int{1, sc.Threads} {
		tbl := NewTable(fmt.Sprintf("Fig. 15: Memory Usage — Read/Update (%d thread(s))", threads), cols...)
		for _, kt := range keyTypes3 {
			cells := make([]string, len(mks))
			for i, mk := range mks {
				cfg := Config{Workload: ycsb.ReadUpdate, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: threads, Seed: sc.Seed, MeasureMemory: true}
				cells[i] = FormatBytes(Run(mk, cfg).Bytes)
			}
			tbl.AddRow(kt.String(), cells...)
		}
		tbl.WriteTo(w)
	}
}

// Table3 reproduces the microbenchmark table with software proxies for
// the paper's hardware counters: ns/op and allocation counters stand in
// for cycles and cache misses (see DESIGN.md substitutions).
func Table3(w io.Writer, sc Scale) {
	mks := index.All()
	cols := make([]string, len(mks))
	for i, mk := range mks {
		idx := mk()
		cols[i] = idx.Name()
		idx.Close()
	}
	tbl := NewTable(fmt.Sprintf("Table 3: Rand-Int Insert-only Microbenchmarks — %d threads (software proxies)", sc.Threads), cols...)
	type m struct {
		nsPerOp     float64
		bytesPerOp  float64
		allocsPerOp float64
	}
	ms := make([]m, len(mks))
	for i, mk := range mks {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx := mk()
		ks := ycsb.NewKeySet(ycsb.RandInt, sc.Keys)
		start := time.Now()
		RunPhase(idx, ks, ycsb.InsertOnly, sc.Keys, sc.Threads, sc.Seed)
		dur := time.Since(start)
		runtime.ReadMemStats(&after)
		idx.Close()
		ms[i] = m{
			nsPerOp:     float64(dur.Nanoseconds()) / float64(sc.Keys),
			bytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(sc.Keys),
			allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(sc.Keys),
		}
	}
	row := func(label string, f func(m) float64) {
		cells := make([]string, len(ms))
		for i := range ms {
			cells[i] = fmt.Sprintf("%.1f", f(ms[i]))
		}
		tbl.AddRow(label, cells...)
	}
	row("ns/op (∝ cycles)", func(x m) float64 { return x.nsPerOp })
	row("B/op (∝ cache traffic)", func(x m) float64 { return x.bytesPerOp })
	row("allocs/op", func(x m) float64 { return x.allocsPerOp })
	tbl.Note("Hardware PMCs are not readable from portable Go; ns/op, B/op and allocs/op are the proxies (DESIGN.md).")
	tbl.WriteTo(w)
}

// Fig16 reproduces the high-contention study (§6.2): Mono-HC Insert-only
// throughput under growing thread counts (the NUMA tiers become thread
// tiers; see DESIGN.md substitutions).
func Fig16(w io.Writer, sc Scale) {
	mks := index.All()
	cols := make([]string, len(mks))
	for i, mk := range mks {
		idx := mk()
		cols[i] = idx.Name()
		idx.Close()
	}
	tbl := NewTable("Fig. 16a: High-Contention Insert-only — Mono-HC keys (Mops/s)", cols...)
	// Fig. 16b/c report local/remote DRAM access rates; the portable
	// proxy for memory-system pressure is the allocation rate.
	allocTbl := NewTable("Fig. 16b: Memory-Pressure Proxy — allocations per second (M/s)", cols...)
	tiers := []int{sc.Threads, 2 * sc.Threads}
	for _, threads := range tiers {
		vals := make([]float64, len(mks))
		allocs := make([]float64, len(mks))
		for i, mk := range mks {
			cfg := Config{Workload: ycsb.InsertOnly, KeyType: ycsb.MonoHC, Keys: 0, Ops: sc.Ops, Threads: threads, Seed: sc.Seed}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res := Run(mk, cfg)
			dur := time.Since(start)
			runtime.ReadMemStats(&after)
			vals[i] = res.RunMops
			allocs[i] = float64(after.Mallocs-before.Mallocs) / dur.Seconds() / 1e6
		}
		label := fmt.Sprintf("%d threads", threads)
		tbl.AddFloats(label, vals...)
		allocTbl.AddFloats(label, allocs...)
	}
	tbl.Note("The paper's 20thr/1-socket, 20thr/2-socket, 40thr/2-socket tiers become %v worker threads on one shared-memory node.", tiers)
	allocTbl.Note("Stands in for the paper's DRAM access-rate counters (Fig. 16b/16c), which portable Go cannot read.")
	tbl.WriteTo(w)
	allocTbl.WriteTo(w)
}

// Fig17 contrasts normal (Mono-Int) and high-contention (Mono-HC)
// Insert-only throughput at full thread count (§6.2).
func Fig17(w io.Writer, sc Scale) {
	mks := index.All()
	cols := make([]string, len(mks))
	for i, mk := range mks {
		idx := mk()
		cols[i] = idx.Name()
		idx.Close()
	}
	tbl := NewTable(fmt.Sprintf("Fig. 17: Normal vs High-Contention Insert-only (%d threads, Mops/s)", sc.Threads), cols...)
	for _, kt := range []ycsb.KeyType{ycsb.MonoInt, ycsb.MonoHC} {
		vals := make([]float64, len(mks))
		for i, mk := range mks {
			cfg := Config{Workload: ycsb.InsertOnly, KeyType: kt, Keys: sc.Keys, Ops: sc.Ops, Threads: sc.Threads, Seed: sc.Seed}
			vals[i] = Run(mk, cfg).RunMops
		}
		tbl.AddFloats(kt.String(), vals...)
	}
	tbl.WriteTo(w)
}

// Fig18 reproduces the feature decomposition (§6.3): disable the delta
// chains, CaS, the mapping table, and delta updates one at a time,
// single-threaded, Rand-Int keys, against a B+Tree reference.
func Fig18(w io.Writer, sc Scale) {
	tbl := NewTable("Fig. 18: Feature Decomposition — Rand-Int, 1 thread (Mops/s)",
		"Insert-only", "Read-only")
	seed := sc.Seed

	// OpenBw-Tree reference.
	insert := Run(index.NewOpenBwTree, Config{Workload: ycsb.InsertOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Threads: 1, Seed: seed})
	read := Run(index.NewOpenBwTree, Config{Workload: ycsb.ReadOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Ops: sc.Ops, Threads: 1, Seed: seed})
	tbl.AddRow("OpenBw-Tree", f3(insert.RunMops), f3(read.RunMops))

	// -DC: consolidate every chain, then measure Read-only.
	{
		idx, ks := Preload(index.NewOpenBwTree, ycsb.RandInt, sc.Keys, 1, seed)
		idx.(index.BwBacked).Tree().ConsolidateAll()
		dur := RunPhase(idx, ks, ycsb.ReadOnly, sc.Ops, 1, seed+1)
		idx.Close()
		tbl.AddRow("-DC (no delta chains)", "N/A", f3(mops(sc.Ops, dur)))
	}

	// -CAS: non-atomic mapping-table publication.
	{
		opts := core.DefaultOptions()
		opts.UnsafeNoCAS = true
		mk := func() index.Index { return index.NewBwTreeWith("noCAS", opts) }
		ins := Run(mk, Config{Workload: ycsb.InsertOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Threads: 1, Seed: seed})
		rd := Run(mk, Config{Workload: ycsb.ReadOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Ops: sc.Ops, Threads: 1, Seed: seed})
		tbl.AddRow("-CAS (plain stores)", f3(ins.RunMops), f3(rd.RunMops))
	}

	// -MT: frozen snapshot with direct pointers, Read-only.
	{
		idx, ks := Preload(index.NewOpenBwTree, ycsb.RandInt, sc.Keys, 1, seed)
		frozen := idx.(index.BwBacked).Tree().Freeze()
		zipf := ycsb.NewScrambledZipfian(uint64(len(ks.Keys)), seed+2)
		start := time.Now()
		for i := 0; i < sc.Ops; i++ {
			frozen.Lookup(ks.Keys[zipf.Next()])
		}
		dur := time.Since(start)
		idx.Close()
		tbl.AddRow("-MT (direct pointers)", "N/A", f3(mops(sc.Ops, dur)))
	}

	// -DU: in-place leaf updates, Insert-only.
	{
		opts := core.DefaultOptions()
		opts.UnsafeNoCAS = true
		opts.InPlaceLeafUpdates = true
		mk := func() index.Index { return index.NewBwTreeWith("inplace", opts) }
		ins := Run(mk, Config{Workload: ycsb.InsertOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Threads: 1, Seed: seed})
		tbl.AddRow("-DU (in-place updates)", f3(ins.RunMops), "N/A")
	}

	// B+Tree(OLC) reference.
	{
		ins := Run(index.NewBTree, Config{Workload: ycsb.InsertOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Threads: 1, Seed: seed})
		rd := Run(index.NewBTree, Config{Workload: ycsb.ReadOnly, KeyType: ycsb.RandInt, Keys: sc.Keys, Ops: sc.Ops, Threads: 1, Seed: seed})
		tbl.AddRow("B+Tree (OLC)", f3(ins.RunMops), f3(rd.RunMops))
	}
	tbl.WriteTo(w)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Latency reports operation latency percentiles (the tail behaviour the
// throughput figures hide) for the baseline Bw-Tree and the OpenBw-Tree
// across all workloads on Rand-Int keys. The harness times every call at
// the session boundary, so the numbers include the full abort/retry
// cost of each public operation.
func Latency(w io.Writer, sc Scale) {
	variants := []struct {
		label string
		mk    func() index.Index
	}{
		{"Bw-Tree", index.NewBaselineBwTree},
		{"OpenBw-Tree", index.NewOpenBwTree},
	}
	for _, v := range variants {
		tbl := NewTable(fmt.Sprintf("Latency: %s — Rand-Int (%d threads, µs)", v.label, sc.Threads),
			"Mops/s", "p50", "p90", "p99", "p99.9")
		for _, wl := range ycsb.AllWorkloads() {
			cfg := Config{Workload: wl, KeyType: ycsb.RandInt, Keys: sc.Keys, Ops: sc.Ops,
				Threads: sc.Threads, Seed: sc.Seed, MeasureLatency: true}
			res := Run(v.mk, cfg)
			var all obs.HistSnapshot
			for c := obs.OpClass(0); c < obs.NumOpClasses; c++ {
				all.Merge(res.Lat.Class(c))
			}
			tbl.AddRow(wl.String(), f3(res.RunMops),
				fmt.Sprintf("%.2f", all.Quantile(0.50)/1e3),
				fmt.Sprintf("%.2f", all.Quantile(0.90)/1e3),
				fmt.Sprintf("%.2f", all.Quantile(0.99)/1e3),
				fmt.Sprintf("%.2f", all.Quantile(0.999)/1e3))
		}
		tbl.Note("Percentiles from log-bucketed histograms (≤6.25%% bucket width), recorded per call at the session boundary.")
		tbl.WriteTo(w)
	}
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, sc Scale) {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "### %s — %s\n\n", e.Name, e.Brief)
		e.Run(w, sc)
	}
}
