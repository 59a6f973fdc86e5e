// The high-pressure SMO configuration — 16-entry leaves, deep chains,
// aggressive merge thresholds, a churned keyspace — is the geometry that
// hid the (now closed) unposted-separator race for six PRs. This test
// attaches internal/histcheck to that exact geometry and runs it in the
// default `go test` suite: fixed op counts (deterministic in size, a few
// seconds long), every operation recorded, and the merged history checked
// against sequential semantics at exit. The 45-second statistical soak
// (zz_repro_test.go) stays opt-in behind BWTREE_REPRO; this is the
// always-on slice of it.
//
// Lives in the external test package because histcheck imports core via
// the index adapters.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/index"
)

// pressureTreeOpts is the reproducer's geometry (zz_repro_test.go): one
// consolidation in ~8 writes per hot leaf, splits at 16 entries, merges
// at 4 — constant split+merge interleaving under a churned keyspace.
func pressureTreeOpts() core.Options {
	opts := core.DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 8
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2
	return opts
}

func TestCheckedHighPressure(t *testing.T) {
	idx := index.NewBwTreeWith("OpenBwTree-pressure", pressureTreeOpts())
	defer idx.Close()

	// Delete-biased churn over a preloaded keyspace: leaves drain below
	// the merge threshold while fresh inserts split their neighbors, so
	// both SMO protocols run the whole time (asserted below).
	mix := histcheck.Mix{Name: "smo-churn", Insert: 30, Delete: 30, Update: 10, Lookup: 25, Scan: 5}
	cfg := histcheck.DefaultRunConfig(17)
	cfg.Threads = 8
	cfg.Keys = 2000
	cfg.Preload = 1000
	cfg.OpsPerThread = 2500
	if testing.Short() {
		cfg.OpsPerThread = 600
	}
	vs, h := histcheck.RunChecked(idx, false, mix, cfg)
	for _, v := range vs {
		t.Errorf("client-visible violation under high pressure: %v", v)
	}
	if t.Failed() {
		t.Logf("history: %d ops", len(h.Ops))
	}

	tr := idx.(index.BwBacked).Tree()
	if err := tr.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	st := tr.Stats()
	if st.Splits == 0 || st.Merges == 0 {
		t.Errorf("workload did not exercise both SMO paths: splits=%d merges=%d", st.Splits, st.Merges)
	}
	if st.InPlaceUpdates == 0 {
		t.Error("no update was stored in place; the checker did not cover that path")
	}
}
