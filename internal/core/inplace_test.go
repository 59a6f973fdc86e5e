package core

import (
	"slices"
	"sync"
	"testing"
)

// bareLeaf returns a tree whose only leaf is a bare base holding keys
// 2, 4, ..., 20 (value k for key k), and that leaf's ID.
func bareLeaf(t *testing.T, opts Options) (*Tree, nodeID) {
	t.Helper()
	tr := New(opts)
	s := tr.NewSession()
	for k := uint64(2); k <= 20; k += 2 {
		s.Insert(key64(k), k)
	}
	s.Release()
	tr.ConsolidateAll()
	leafID := tr.load(tr.root).kids[0]
	if h := tr.load(leafID); h.kind != kLeafBase {
		t.Fatalf("loaded leaf head is a %v, want a bare base", h.kind)
	}
	return tr, leafID
}

// TestUpdateInPlace pins the in-place path on a bare base: the update
// posts no delta, bumps the base's sequence word by 2, stamps a fresh
// version, and is counted; a chained leaf and BaselineOptions still post
// a ∆update.
func TestUpdateInPlace(t *testing.T) {
	tr, leafID := bareLeaf(t, DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	base := tr.load(leafID)
	_, ver0, _ := s.LookupVersion(key64(8))
	if !s.Update(key64(8), 80) {
		t.Fatal("update of a present key refused")
	}
	if h := tr.load(leafID); h != base {
		t.Fatalf("the update replaced the head with a %v", h.kind)
	}
	if w := base.seq.Load(); w != 2 {
		t.Fatalf("sequence word %d after one update, want 2", w)
	}
	v, ver, ok := s.LookupVersion(key64(8))
	if !ok || v != 80 || ver <= ver0 {
		t.Fatalf("LookupVersion = (%d, %d, %t), want (80, > %d, true)", v, ver, ok, ver0)
	}
	if n := tr.Stats().InPlaceUpdates; n != 1 {
		t.Fatalf("InPlaceUpdates = %d, want 1", n)
	}
	if s.Update(key64(9), 9) {
		t.Fatal("update of an absent key succeeded")
	}

	// A chained leaf takes the delta path.
	s.Insert(key64(11), 11)
	s.Update(key64(10), 100)
	if h := tr.load(leafID); h.kind != kLeafUpdate {
		t.Fatalf("update on a chained leaf left a %v head, want a LeafUpdate", h.kind)
	}
	if n := tr.Stats().InPlaceUpdates; n != 1 {
		t.Fatalf("InPlaceUpdates = %d after a chained update, want 1", n)
	}

	// The paper's original Bw-Tree posts every update as a delta.
	bl, blID := bareLeaf(t, BaselineOptions())
	defer bl.Close()
	bs := bl.NewSession()
	defer bs.Release()
	bs.Update(key64(8), 80)
	if h := bl.load(blID); h.kind != kLeafUpdate || bl.Stats().InPlaceUpdates != 0 {
		t.Fatalf("baseline update: head %v, %d in place; want a LeafUpdate, 0", h.kind, bl.Stats().InPlaceUpdates)
	}
}

// TestLookupBatchDuplicateSeesInPlaceUpdate looks up one key twice in a
// batch whose visit updates that key in place through a second session
// after the first answer. The head pointer is unchanged by the update,
// so only the base's sequence word tells the duplicate-key shortcut that
// the first answer is stale: the second answer must show the new value.
func TestLookupBatchDuplicateSeesInPlaceUpdate(t *testing.T) {
	tr, _ := bareLeaf(t, DefaultOptions())
	defer tr.Close()
	rd, wr := tr.NewSession(), tr.NewSession()
	defer rd.Release()
	defer wr.Release()
	k := key64(8)
	var got [][]uint64
	rd.LookupBatch([][]byte{k, k}, func(i int, vals []uint64) {
		got = append(got, slices.Clone(vals))
		if len(got) == 1 && !wr.Update(k, 80) {
			t.Fatal("update of a present key refused")
		}
	})
	if tr.Stats().InPlaceUpdates != 1 {
		t.Fatal("the update did not take the in-place path; the test proves nothing")
	}
	if want := [][]uint64{{8}, {80}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("LookupBatch answers %v, want %v", got, want)
	}
}

// TestInPlaceUpdateVersusSeal races an in-place update of key 8 on a
// bare leaf base against a scan that first inserts key 11 into the same
// leaf and then consolidates it, copying the base. Seeded CoopSched
// schedules run the update's sequence-word claim both before and after
// the copy's seal. Either way the update must survive: a claim before
// the seal lands in the base the copy reads, and one after it fails and
// falls back to a delta, so the value is never stored into a base that
// has already been copied.
func TestInPlaceUpdateVersusSeal(t *testing.T) {
	const k, v = 8, 80
	before, after := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		tr, leafID := bareLeaf(t, DefaultOptions())
		up, sc := tr.NewSession(), tr.NewSession()
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		// Record the order in which the claim and the seal run. Each
		// point fires before its action and onPoint returns once the
		// goroutine holds the turn, so the record follows execution.
		var mu sync.Mutex
		var order []SyncPoint
		SetSchedHook(func(pi PointInfo) {
			cs.onPoint(pi)
			if pi.Point == SPSeqClaim || pi.Point == SPSeal {
				mu.Lock()
				order = append(order, pi.Point)
				mu.Unlock()
			}
		}) // cs.Run restores the hook NewCoopSched replaced
		cs.Go(func() {
			if !up.Update(key64(k), v) {
				t.Errorf("seed %d: update of a present key refused", seed)
			}
		})
		cs.Go(func() {
			sc.Insert(key64(11), 11)
			sc.Scan(key64(1), 100, func([]byte, uint64) bool { return true })
		})
		cs.Run()
		if b := cs.Breaches(); b != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, b)
		}
		claim, seal := slices.Index(order, SPSeqClaim), slices.Index(order, SPSeal)
		switch {
		case claim < 0 || seal < 0:
			// The update read the chained leaf and posted a delta.
		case claim < seal:
			before++
		default:
			after++
		}
		if got := up.Lookup(key64(k), nil); !slices.Equal(got, []uint64{v}) {
			t.Fatalf("seed %d (claim/seal order %v): key %d = %v after the schedule, want [%d]", seed, order, k, got, v)
		}
		if h := tr.load(leafID); h.kind == kLeafBase {
			if pos, ok := h.baseSearch(key64(k)); !ok || h.vals[pos] != v {
				t.Fatalf("seed %d: the published base does not hold key %d = %d", seed, k, v)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		up.Release()
		sc.Release()
		tr.Close()
	}
	if before == 0 || after == 0 {
		t.Fatalf("claim ran before the seal in %d schedules and after it in %d; want both orders", before, after)
	}
	t.Logf("claim before seal in %d schedules, after it in %d", before, after)
}
