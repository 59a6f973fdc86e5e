package harness

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/index"
)

// gateFailures counts runs of Checked that found violations; bwbench
// exits non-zero when it is set, so CI can rely on the exit code.
var gateFailures atomic.Int64

// GateFailures reports how many Checked runs found violations.
func GateFailures() int { return int(gateFailures.Load()) }

// Checked is the correctness experiment: every index runs three mixed
// workloads with the history recorder attached, and the merged histories
// are verified against sequential semantics (per-key linearizability plus
// scan completeness; see internal/histcheck). The Bw-Tree additionally
// runs under both GC schemes, since epoch reclamation is where premature
// frees would surface as stale reads. The experiment's product is not a
// throughput number but a zero-violation gate. A Bw-Tree built to update
// in place must also have stored some updates that way, so the verdict
// covers that path under concurrency.
func Checked(w io.Writer, sc Scale) {
	type entry struct {
		name      string
		mk        func() index.Index
		nonUnique bool
	}
	openCentral := core.DefaultOptions()
	openCentral.GC = core.GCCentralized
	baseDecentral := core.BaselineOptions()
	baseDecentral.GC = core.GCDecentralized
	openNonUnique := core.DefaultOptions()
	openNonUnique.NonUnique = true
	entries := []entry{
		{"OpenBwTree (decentralized GC)", index.NewOpenBwTree, false},
		{"OpenBwTree (centralized GC)", func() index.Index { return index.NewBwTreeWith("OpenBwTree-central", openCentral) }, false},
		{"OpenBwTree (non-unique keys)", func() index.Index { return index.NewBwTreeWith("OpenBwTree-nonunique", openNonUnique) }, true},
		{"BwTree (centralized GC)", index.NewBaselineBwTree, false},
		{"BwTree (decentralized GC)", func() index.Index { return index.NewBwTreeWith("BwTree-decentral", baseDecentral) }, false},
		{"SkipList", index.NewSkipList, false},
		{"Masstree", index.NewMasstree, false},
		{"B+Tree", index.NewBTree, false},
		{"ART", index.NewART, false},
	}

	mixes := histcheck.Mixes()
	cols := make([]string, len(mixes))
	for i, m := range mixes {
		cols[i] = m.Name
	}

	// Never drop below the default 4 worker goroutines: the point is
	// interleaving, which needs more goroutines than the benchmark thread
	// count on small machines (goroutines still preempt under GOMAXPROCS=1).
	cfg := histcheck.DefaultRunConfig(sc.Seed)
	if sc.Threads > cfg.Threads && sc.Threads <= 8 {
		cfg.Threads = sc.Threads
	}

	failures := 0
	runTable := func(title string, cfg histcheck.RunConfig) {
		tbl := NewTable(title, cols...)
		for _, e := range entries {
			cells := make([]string, len(mixes))
			for i, mix := range mixes {
				idx := e.mk()
				vs, h := histcheck.RunChecked(idx, e.nonUnique, mix, cfg)
				noInPlace := false
				if bw, ok := idx.(index.BwBacked); ok && mix.Update > 0 {
					o := bw.Tree().Options()
					noInPlace = o.UpdateInPlace && !o.NonUnique && bw.Tree().Stats().InPlaceUpdates == 0
				}
				idx.Close()
				switch {
				case len(vs) > 0:
					cells[i] = fmt.Sprintf("%d FAIL(%d)", len(h.Ops), len(vs))
				case noInPlace:
					cells[i] = fmt.Sprintf("%d FAIL(in-place)", len(h.Ops))
				default:
					cells[i] = fmt.Sprintf("%d ok", len(h.Ops))
				}
				if noInPlace {
					failures++
					fmt.Fprintf(w, "  %s / %s: no update was stored in place\n", e.name, mix.Name)
				}
				failures += len(vs)
				for j, v := range vs {
					if j == 5 {
						fmt.Fprintf(w, "  ... %d more\n", len(vs)-5)
						break
					}
					fmt.Fprintf(w, "  %s / %s: %v\n", e.name, mix.Name, v)
				}
			}
			tbl.AddRow(e.name, cells...)
		}
		if cfg.Batch > 1 {
			tbl.Note("Inserts and lookups run through InsertBatch/LookupBatch (window %d); deletes, updates, and scans interleave single-op.", cfg.Batch)
		} else {
			tbl.Note("Each cell is one concurrent run (%d threads) verified for per-key linearizability and scan completeness.", cfg.Threads)
		}
		tbl.WriteTo(w)
	}
	runTable("Checked: history-checker verdict per index and mix (ops checked / violations)", cfg)
	// Batched variant: the same mixes with inserts and lookups routed
	// through the batch entry points, so the amortized-epoch hot path gets
	// the same linearizability verdict as the single-op path.
	bcfg := cfg
	bcfg.Batch = 16
	runTable("Checked (batched): InsertBatch/LookupBatch under the history checker", bcfg)
	if failures == 0 {
		fmt.Fprintf(w, "checked: zero violations across %d runs\n", 2*len(entries)*len(mixes))
	} else {
		fmt.Fprintf(w, "checked: %d VIOLATIONS — see above\n", failures)
		gateFailures.Add(1)
	}
}
