package histcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// nonUniqueBwTree is the OpenBw-Tree with duplicate keys (§3.1), so the
// checked runs hold the multi-value semantics to the history checker.
func nonUniqueBwTree() index.Index {
	opts := core.DefaultOptions()
	opts.NonUnique = true
	return index.NewBwTreeWith("OpenBwTree-nonunique", opts)
}

// seq builds sequential (non-overlapping) interval stamps: op i occupies
// [2i+1, 2i+2].
func seq(ops []Record) *History {
	for i := range ops {
		ops[i].Inv = uint64(2*i + 1)
		ops[i].Ret = uint64(2*i + 2)
	}
	return &History{Ops: ops}
}

func wantClean(t *testing.T, h *History) {
	t.Helper()
	if vs := Check(h); len(vs) != 0 {
		t.Fatalf("expected clean history, got violations: %v", vs)
	}
}

func wantViolation(t *testing.T, h *History, kind string) {
	t.Helper()
	vs := Check(h)
	for _, v := range vs {
		if v.Kind == kind {
			return
		}
	}
	t.Fatalf("expected a %q violation, got: %v", kind, vs)
}

func TestSequentialUniqueAccepted(t *testing.T) {
	wantClean(t, seq([]Record{
		{Kind: OpLookup, Key: "a"},
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "a", Value: 2, OK: false},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1}},
		{Kind: OpUpdate, Key: "a", Value: 3, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{3}},
		{Kind: OpDelete, Key: "a", OK: true},
		{Kind: OpDelete, Key: "a", OK: false},
		{Kind: OpUpdate, Key: "a", Value: 4, OK: false},
		{Kind: OpLookup, Key: "a"},
		{Kind: OpInsert, Key: "a", Value: 5, OK: true},
	}))
}

func TestConcurrentOverlapAccepted(t *testing.T) {
	// Two racing inserts; the one that reported failure overlaps the one
	// that succeeded, and a concurrent lookup may see either state.
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 6},
		{Kind: OpInsert, Key: "a", Value: 2, OK: false, Inv: 2, Ret: 5},
		{Kind: OpLookup, Key: "a", Vals: nil, Inv: 3, Ret: 4},
	}})
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 6},
		{Kind: OpInsert, Key: "a", Value: 2, OK: false, Inv: 2, Ret: 5},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1}, Inv: 3, Ret: 4},
	}})
}

func TestUniquenessViolationDetected(t *testing.T) {
	// Both inserts succeed with no intervening delete: impossible under
	// unique semantics.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "a", Value: 2, OK: true},
	}), "non-linearizable")
}

func TestLostUpdateDetected(t *testing.T) {
	// The insert completed before the lookup began, yet the lookup saw
	// nothing.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpLookup, Key: "a", Vals: nil},
	}), "non-linearizable")
}

func TestStaleReadDetected(t *testing.T) {
	// The update completed before the lookup began, yet the lookup
	// returned the overwritten value.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpUpdate, Key: "a", Value: 2, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1}},
	}), "non-linearizable")
}

func TestConcurrentReadMaySeeOldValue(t *testing.T) {
	// Same as above but the lookup overlaps the update: legal.
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 2},
		{Kind: OpUpdate, Key: "a", Value: 2, OK: true, Inv: 3, Ret: 6},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1}, Inv: 4, Ret: 5},
	}})
}

func TestUniqueLookupTwoValues(t *testing.T) {
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1, 2}},
	}), "duplicate-key")
}

func TestNonUniqueAccepted(t *testing.T) {
	h := seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "a", Value: 2, OK: true},
		{Kind: OpInsert, Key: "a", Value: 1, OK: false},
		{Kind: OpLookup, Key: "a", Vals: []uint64{2, 1}},
		{Kind: OpDelete, Key: "a", Value: 1, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{2}},
		{Kind: OpUpdate, Key: "a", Value: 7, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{7}},
	})
	h.NonUnique = true
	wantClean(t, h)
}

func TestNonUniqueDuplicatePair(t *testing.T) {
	h := seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1, 1}},
	})
	h.NonUnique = true
	wantViolation(t, h, "duplicate-pair")
}

func TestScanOrderViolation(t *testing.T) {
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "b", Value: 2, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 10, Pairs: []KV{{"b", 2}, {"a", 1}}},
	}), "scan-order")
}

func TestScanDuplicateKey(t *testing.T) {
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 10, Pairs: []KV{{"a", 1}, {"a", 1}}},
	}), "scan-duplicate")
}

func TestScanPhantom(t *testing.T) {
	// "b" was never inserted, yet the scan returned it.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 10, Pairs: []KV{{"a", 1}, {"b", 2}}},
	}), "scan-phantom")
}

func TestScanSkip(t *testing.T) {
	// "b" was stably present and inside the scanned range, yet missing.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "b", Value: 2, OK: true},
		{Kind: OpInsert, Key: "c", Value: 3, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 2, Pairs: []KV{{"a", 1}, {"c", 3}}},
	}), "scan-skip")
}

func TestScanSkipNotFlaggedWhenDeleteRaces(t *testing.T) {
	// The delete overlaps the scan, so "b" missing is legal.
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 2},
		{Kind: OpInsert, Key: "b", Value: 2, OK: true, Inv: 3, Ret: 4},
		{Kind: OpInsert, Key: "c", Value: 3, OK: true, Inv: 5, Ret: 6},
		{Kind: OpDelete, Key: "b", Value: 2, OK: true, Inv: 7, Ret: 10},
		{Kind: OpScan, Key: "a", ScanN: 2, Pairs: []KV{{"a", 1}, {"c", 3}}, Inv: 8, Ret: 9},
	}})
}

func TestScanShortResultClaimsExhaustion(t *testing.T) {
	// The scan returned fewer than n items without being stopped, so it
	// claims it reached the end of the keyspace — "c" must not be missing.
	wantViolation(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "c", Value: 3, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 10, Pairs: []KV{{"a", 1}}},
	}), "scan-skip")
}

func TestScanStoppedIsOnlyAPrefix(t *testing.T) {
	// Same shape, but the visitor stopped the scan: nothing past "a" was
	// claimed, so nothing is skipped.
	wantClean(t, seq([]Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true},
		{Kind: OpInsert, Key: "c", Value: 3, OK: true},
		{Kind: OpScan, Key: "a", ScanN: 10, Pairs: []KV{{"a", 1}}, Stopped: true},
	}))
}

// TestBatchSharedIntervalAccepted pins the soundness argument for batch
// recording: all records of one batch share the whole-batch interval, so
// same-key entries are mutually concurrent and any per-key order must be
// admitted.
func TestBatchSharedIntervalAccepted(t *testing.T) {
	// One InsertBatch containing a duplicate key: exactly one wins, and
	// both records carry the same [1, 2] interval.
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 2},
		{Kind: OpInsert, Key: "a", Value: 2, OK: false, Inv: 1, Ret: 2},
		{Kind: OpLookup, Key: "a", Vals: []uint64{1}, Inv: 3, Ret: 4},
	}})
	// A batch lookup racing the batch insert may see either state.
	wantClean(t, &History{Ops: []Record{
		{Kind: OpInsert, Key: "a", Value: 1, OK: true, Inv: 1, Ret: 4},
		{Kind: OpLookup, Key: "a", Vals: nil, Inv: 2, Ret: 3},
		{Kind: OpLookup, Key: "b", Vals: nil, Inv: 2, Ret: 3},
	}})
}

// TestRunCheckedBatchedClean is TestRunCheckedClean with inserts and
// lookups routed through the batch entry points (window 16). The Bw-Tree
// runs its native amortized-epoch batch path; the other indexes cover the
// loop adapter.
func TestRunCheckedBatchedClean(t *testing.T) {
	type entry struct {
		name      string
		mk        func() index.Index
		nonUnique bool
	}
	entries := []entry{
		{"OpenBwTree", index.NewOpenBwTree, false},
		{"OpenBwTree-nonunique", nonUniqueBwTree, true},
		{"BwTree", index.NewBaselineBwTree, false},
	}
	if !testing.Short() {
		entries = append(entries, entry{"SkipList", index.NewSkipList, false})
	}
	for _, e := range entries {
		for _, mix := range Mixes() {
			t.Run(e.name+"/"+mix.Name, func(t *testing.T) {
				idx := e.mk()
				defer idx.Close()
				cfg := DefaultRunConfig(0xBA7C4)
				cfg.Batch = 16
				if testing.Short() {
					cfg.OpsPerThread = 800
				}
				vs, h := RunChecked(idx, e.nonUnique, mix, cfg)
				for _, v := range vs {
					t.Errorf("violation: %v", v)
				}
				if len(h.Ops) < cfg.Threads*cfg.OpsPerThread {
					t.Fatalf("history too small: %d ops", len(h.Ops))
				}
			})
		}
	}
}

// TestRunCheckedClean runs every index through every mix with the
// recorder attached and requires a spotless verdict. In short mode only
// the three Bw-Tree configurations run (the CI race job's target); the full
// matrix covers all six indexes.
func TestRunCheckedClean(t *testing.T) {
	type entry struct {
		name      string
		mk        func() index.Index
		nonUnique bool
	}
	entries := []entry{
		{"OpenBwTree", index.NewOpenBwTree, false},
		{"OpenBwTree-nonunique", nonUniqueBwTree, true},
		{"BwTree", index.NewBaselineBwTree, false},
	}
	if !testing.Short() {
		entries = append(entries,
			entry{"SkipList", index.NewSkipList, false},
			entry{"Masstree", index.NewMasstree, false},
			entry{"B+Tree", index.NewBTree, false},
			entry{"ART", index.NewART, false},
		)
	}
	for _, e := range entries {
		for _, mix := range Mixes() {
			t.Run(e.name+"/"+mix.Name, func(t *testing.T) {
				idx := e.mk()
				defer idx.Close()
				cfg := DefaultRunConfig(0xC0FFEE)
				if testing.Short() {
					cfg.OpsPerThread = 800
				}
				vs, h := RunChecked(idx, e.nonUnique, mix, cfg)
				for _, v := range vs {
					t.Errorf("violation: %v", v)
				}
				if len(h.Ops) < cfg.Threads*cfg.OpsPerThread {
					t.Fatalf("history too small: %d ops", len(h.Ops))
				}
			})
		}
	}
}
