//go:build !smoracebug

package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestScheduleUnpostedSeparatorRace is the deterministic regression
// test for the closed high-pressure SMO bug (README "Known issues"):
// with the race guards in place, a merge attempt on a half-split's
// unposted right sibling must be refused, and the delayed separator
// post must land cleanly afterwards. Under -tags smoracebug the same
// driver reproduces the original corruption (schedule_smo_red_test.go).
func TestScheduleUnpostedSeparatorRace(t *testing.T) {
	out := runUnpostedSeparatorRace(t)
	if out.mergeLocks == 0 {
		t.Fatalf("scenario did not exercise the guard: no merge attempt on the unposted sibling %d", out.victim)
	}
	if out.merges != 0 {
		t.Errorf("merge of the unposted right sibling completed %d times; the routing guard must refuse it", out.merges)
	}
	if out.errAfterMerge != nil {
		t.Errorf("validate after refused merge: %v", out.errAfterMerge)
	}
	if out.errAfterPost != nil {
		t.Errorf("validate after the delayed separator post: %v", out.errAfterPost)
	}
	if out.routeDangling {
		t.Errorf("tree routes %x to a dead node after the delayed post", out.sepKey)
	}
	if out.errFinal != nil {
		t.Errorf("final validate: %v", out.errFinal)
	}
	// Keys that existed before the park were deleted by the drain; the
	// rest were inserted by the writer after the release. Sanity: the
	// drain must have deleted at least the split's left half.
	if len(out.deleted) < 4 {
		t.Fatalf("drain deleted only %d keys; the scenario never built the half-split", len(out.deleted))
	}
	for i := uint64(1); i <= 64; i++ {
		v, ok := out.finalContent[i]
		if out.deleted[i] {
			if ok {
				t.Errorf("deleted key %d still present (value %d)", i, v)
			}
		} else if !ok || v != i {
			t.Errorf("key %d: got (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
}

// TestScheduleCoopSchedSeeds explores seeded PCT-style random schedules
// over a merge-heavy configuration: three workers on disjoint key
// stripes run serialized by CoopSched, and every seed must end with a
// valid tree whose contents match each worker's model. A seed that
// fails here is a deterministic reproducer by construction.
func TestScheduleCoopSchedSeeds(t *testing.T) {
	for _, nonUnique := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("nonunique=%v/seed=%d", nonUnique, seed), func(t *testing.T) {
				runCoopSchedWorkload(t, seed, nonUnique)
			})
		}
	}
}

func runCoopSchedWorkload(t *testing.T, seed int64, nonUnique bool) {
	opts := DefaultOptions()
	opts.NonUnique = nonUnique
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 4
	opts.LeafChainLength = 2
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2
	tr := New(opts)
	defer tr.Close()

	const nw = 3
	const ops = 150
	const stripe = 40
	owned := make([]map[uint64]uint64, nw) // per-worker model: key → value
	cs := NewCoopSched(seed)
	for w := 0; w < nw; w++ {
		owned[w] = map[uint64]uint64{}
		mine := owned[w]
		rng := rand.New(rand.NewSource(seed*131 + int64(w)))
		cs.Go(func() {
			s := tr.NewSession()
			defer s.Release()
			var vals []uint64
			for i := 0; i < ops; i++ {
				// Disjoint stripes keep each worker's model exact no
				// matter how the schedule interleaves the workers.
				k := uint64(w) + uint64(rng.Intn(stripe))*nw + 1
				switch rng.Intn(4) {
				case 0, 1:
					v := uint64(i) + 1
					_, had := mine[k]
					if nonUnique && had {
						v = mine[k] // exact-pair duplicate: must be refused
					}
					if s.Insert(key64(k), v) == had {
						t.Errorf("worker %d: insert %d inconsistent (had=%v)", w, k, had)
						return
					}
					if !had {
						mine[k] = v
					}
				case 2:
					v, had := mine[k]
					if s.Delete(key64(k), v) != had {
						t.Errorf("worker %d: delete %d inconsistent (had=%v)", w, k, had)
						return
					}
					delete(mine, k)
				default:
					want, had := mine[k]
					vals = s.Lookup(key64(k), vals[:0])
					if had != (len(vals) == 1) || had && vals[0] != want {
						t.Errorf("worker %d: lookup %d got %v want (%d, %v)", w, k, vals, want, had)
						return
					}
				}
			}
		})
	}
	steps := cs.Run()
	if b := cs.Breaches(); b > 0 {
		t.Logf("watchdog breaches: %d (schedule was not fully serial)", b)
	}
	t.Logf("seed %d: %d sync-point steps, stats=%+v", seed, steps, tr.Stats())
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed %d: validate: %v", seed, err)
	}
	s := tr.NewSession()
	defer s.Release()
	var vals []uint64
	for w := 0; w < nw; w++ {
		for k, want := range owned[w] {
			vals = s.Lookup(key64(k), vals[:0])
			if len(vals) != 1 || vals[0] != want {
				t.Errorf("seed %d: key %d got %v want [%d]", seed, k, vals, want)
			}
		}
	}
}

// TestScheduleNonUniqueInjectedRace pins the two non-unique-key fixes
// from PR 3 under exact schedule control.
//
// Fix 1 (write.go reduce-to-delete): a pair equal to an update's target
// is inserted by a second session at the precise instant between the
// updater's leaf seek and its CaS — the sync-point hook injects it at
// SPLeafPrepend. The updater's retry must then reduce to a delete of
// the old pair instead of creating a duplicate.
//
// Fix 2 (consolidate.go offset -1): the surviving update delta's insert
// half lands at a different sorted position than the pair it replaced,
// so fast consolidation must fall back to the baseline replay or the
// base comes out unsorted.
func TestScheduleNonUniqueInjectedRace(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	opts.FastConsolidate = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	s2 := tr.NewSession()
	defer s2.Release()

	key := []byte("pair-key")
	if !s.Insert(key, 1) || !s.Insert(key, 9) {
		t.Fatal("setup inserts failed")
	}
	tr.ConsolidateAll() // materialize (key,1),(key,9) into the base

	injected := false
	restore := SetSchedHook(func(pi PointInfo) {
		if pi.Point == SPLeafPrepend && !injected {
			injected = true
			// The updater has sought (key,1), confirmed (key,5) absent,
			// and built its ∆update — and has not CaS'd yet. Make
			// (key,5) appear right now.
			if !s2.Insert(key, 5) {
				t.Error("injected insert of (key,5) failed")
			}
		}
	})
	if !s.UpdateValue(key, 1, 5) {
		t.Fatal("UpdateValue(1→5) reported the old pair missing")
	}
	restore()
	if !injected {
		t.Fatal("schedule hook never fired; the race was not exercised")
	}

	want := []uint64{5, 9}
	check := func(when string) {
		t.Helper()
		got := s.Lookup(key, nil)
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("%s: values = %v, want %v (duplicate-pair reduction broken)", when, got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", when, err)
		}
	}
	check("after racing update")
	// Fix 2: consolidating the chain (∆insert(5) injected, ∆delete(1)
	// from the reduction, over base [(1),(9)]) must produce a sorted
	// base — the update/insert offsets cannot be reused verbatim.
	tr.ConsolidateAll()
	check("after consolidation")
}

// TestScheduleFoldedSplitTailRace is the deterministic regression test
// for mode (c) of the high-pressure SMO bug — the folded-split-tail
// wedge found by the soak stall detector: a victim whose own split
// folded with its separator unposted must be refused by the merge
// coverage guard, because the merge's ∆separator-delete cannot cover
// the separator's full base range. Under -tags smoracebug the same
// driver reproduces the permanent stale route
// (schedule_smo_red_test.go).
func TestScheduleFoldedSplitTailRace(t *testing.T) {
	out := runFoldedSplitTailRace(t)
	if out.sepFails == 0 {
		t.Fatal("scenario never failed a separator post; the split was not left unposted")
	}
	if out.mergeLocks == 0 {
		t.Fatalf("scenario did not exercise the guard: no merge attempt on the folded victim %d", out.victim)
	}
	if out.merges != 0 {
		t.Errorf("merge of the folded victim completed %d times; the coverage guard must refuse it", out.merges)
	}
	if out.errAfterDrain != nil {
		t.Errorf("validate after refused merge: %v", out.errAfterDrain)
	}
	if out.tailDangling {
		t.Errorf("tree routes tail key %d to a dead node", out.splitKey)
	}
	if out.errFinal != nil {
		t.Errorf("final validate: %v", out.errFinal)
	}
	for k, want := range out.model {
		if got, ok := out.survivors[k]; !ok || got != want {
			t.Errorf("key %d: got (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
}
