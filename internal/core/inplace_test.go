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

// TestUpdateInPlace pins the in-place path: an update of a key its
// leaf's base decides posts no delta, bumps the base's sequence word by
// 2, stamps a fresh version, and is counted, whether the base is the
// bare head or sits under a chain; an update of a key a ∆insert decides
// and BaselineOptions still post a ∆update.
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

	// On a chained leaf, a key the base decides is stored in place: the
	// head stays, and the chain gains no element.
	s.Insert(key64(11), 11)
	chained := tr.load(leafID)
	if !s.Update(key64(10), 100) {
		t.Fatal("update of a base-held key on a chained leaf refused")
	}
	if h := tr.load(leafID); h != chained || h.depth != 1 {
		t.Fatalf("update on a chained leaf left a %v head at depth %d, want the ∆insert at depth 1", h.kind, h.depth)
	}
	if n := tr.Stats().InPlaceUpdates; n != 2 {
		t.Fatalf("InPlaceUpdates = %d after a chained update, want 2", n)
	}
	if got := s.Lookup(key64(10), nil); !slices.Equal(got, []uint64{100}) {
		t.Fatalf("Lookup(10) = %v after a chained in-place update, want [100]", got)
	}
	// A key a delta decides keeps the delta path.
	if !s.Update(key64(11), 110) {
		t.Fatal("update of a key held by a ∆insert refused")
	}
	if h := tr.load(leafID); h.kind != kLeafUpdate || h.next != chained {
		t.Fatalf("update of a ∆insert's key left a %v head, want a LeafUpdate on the ∆insert", h.kind)
	}
	if n := tr.Stats().InPlaceUpdates; n != 2 {
		t.Fatalf("InPlaceUpdates = %d after a delta-decided update, want 2", n)
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

// chainedLeaf is bareLeaf with key 11 inserted, so the base holding keys
// 2..20 sits under a one-element chain.
func chainedLeaf(t *testing.T) (*Tree, nodeID) {
	t.Helper()
	tr, leafID := bareLeaf(t, DefaultOptions())
	s := tr.NewSession()
	s.Insert(key64(11), 11)
	s.Release()
	if h := tr.load(leafID); h.kind != kLeafInsert {
		t.Fatalf("leaf head is a %v, want the ∆insert of key 11", h.kind)
	}
	return tr, leafID
}

// TestChainedInPlaceUpdateVersusDelete races an update of key 8, which
// the base under a chained head holds, against a delete of key 8 under
// seeded CoopSched schedules. Where the ∆delete is published while the
// update is parked at its sequence-word claim, the store lands in the
// base under the delete and is shadowed: the update reports true, and no
// read finds key 8. In every schedule key 8 ends absent.
func TestChainedInPlaceUpdateVersusDelete(t *testing.T) {
	const k = 8
	shadowed := 0
	for seed := int64(1); seed <= 32; seed++ {
		tr, leafID := chainedLeaf(t)
		up, del := tr.NewSession(), tr.NewSession()
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		parkedUnderDelete := false
		SetSchedHook(func(pi PointInfo) {
			cs.onPoint(pi)
			if pi.Point == SPSeqClaim {
				// onPoint has returned, so the updater holds the turn
				// and claims next.
				h := tr.load(leafID)
				parkedUnderDelete = h.kind == kLeafDelete && slices.Equal(h.key, key64(k))
			}
		}) // cs.Run restores the hook NewCoopSched replaced
		var updated bool
		cs.Go(func() { updated = up.Update(key64(k), 80) })
		cs.Go(func() {
			if !del.Delete(key64(k), 0) {
				t.Errorf("seed %d: delete of key %d refused", seed, k)
			}
		})
		cs.Run()
		if b := cs.Breaches(); b != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, b)
		}
		if parkedUnderDelete {
			shadowed++
			if !updated || tr.Stats().InPlaceUpdates != 1 {
				t.Fatalf("seed %d: shadowed update returned %t with %d stores, want true and 1",
					seed, updated, tr.Stats().InPlaceUpdates)
			}
		}
		if got := up.Lookup(key64(k), nil); len(got) != 0 {
			t.Fatalf("seed %d (shadowed %t): key %d = %v after the delete, want absent", seed, parkedUnderDelete, k, got)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		up.Release()
		del.Release()
		tr.Close()
	}
	if shadowed == 0 {
		t.Fatal("no schedule published the delete while the update was parked at its claim")
	}
	t.Logf("the delete shadowed a parked store in %d of 32 schedules", shadowed)
}

// TestChainedInPlaceUpdateVersusSeal races an update of key 8, which the
// base under a chained head holds, against a scan that consolidates the
// leaf and so seals that base, under seeded CoopSched schedules. Where
// the seal lands while the update is parked at its claim, the claim
// fails and the update goes through the leaf the scan published;
// otherwise the store lands before the copy. Either way the value is in
// the tree and, where the leaf is a base, in that base.
func TestChainedInPlaceUpdateVersusSeal(t *testing.T) {
	const k, v = 8, 80
	sealed, unsealed := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		tr, leafID := chainedLeaf(t)
		base := tr.load(leafID).base
		up, sc := tr.NewSession(), tr.NewSession()
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		parked := false // the first claim ran against the chained base
		sealedFirst := false
		SetSchedHook(func(pi PointInfo) {
			cs.onPoint(pi)
			if pi.Point == SPSeqClaim && !parked {
				parked = true
				sealedFirst = base.seq.Load()&seqSealed != 0
			}
		}) // cs.Run restores the hook NewCoopSched replaced
		cs.Go(func() {
			if !up.Update(key64(k), v) {
				t.Errorf("seed %d: update of a present key refused", seed)
			}
		})
		cs.Go(func() {
			sc.Scan(key64(1), 100, func([]byte, uint64) bool { return true })
		})
		cs.Run()
		if b := cs.Breaches(); b != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, b)
		}
		switch {
		case !parked:
			t.Fatalf("seed %d: the update never reached a claim", seed)
		case sealedFirst:
			sealed++
		default:
			unsealed++
		}
		if got := up.Lookup(key64(k), nil); !slices.Equal(got, []uint64{v}) {
			t.Fatalf("seed %d (sealed first %t): key %d = %v, want [%d]", seed, sealedFirst, k, got, v)
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
	if sealed == 0 || unsealed == 0 {
		t.Fatalf("the seal came before the parked claim in %d schedules and after it in %d; want both", sealed, unsealed)
	}
	t.Logf("seal before the parked claim in %d schedules, after it in %d", sealed, unsealed)
}

// TestSeqWaitsCounted runs two updates of keys 8 and 10 of one bare base
// under seeded CoopSched schedules. Where the first is parked inside its
// section (sequence word claimed, value not yet stored) when the second
// claims, the second waits, and Stats.SeqWaits counts it; where no store
// is inside, the first try succeeds and nothing is counted.
func TestSeqWaitsCounted(t *testing.T) {
	parkedRuns, freeRuns := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		tr, leafID := bareLeaf(t, DefaultOptions())
		base := tr.load(leafID)
		a, b := tr.NewSession(), tr.NewSession()
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		// Where either update claims, was the other inside its section?
		busyAtClaim := false
		SetSchedHook(func(pi PointInfo) {
			cs.onPoint(pi)
			if pi.Point == SPSeqClaim && base.seq.Load()&seqBusy != 0 {
				busyAtClaim = true
			}
		}) // cs.Run restores the hook NewCoopSched replaced
		cs.Go(func() { a.Update(key64(8), 80) })
		cs.Go(func() { b.Update(key64(10), 100) })
		cs.Run()
		if br := cs.Breaches(); br != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, br)
		}
		st := tr.Stats()
		if st.InPlaceUpdates != 2 || base.seq.Load() != 4 {
			t.Fatalf("seed %d: %d stores, sequence word %d; want 2 and 4", seed, st.InPlaceUpdates, base.seq.Load())
		}
		if busyAtClaim {
			parkedRuns++
			if st.SeqWaits == 0 {
				t.Fatalf("seed %d: a claim found a store inside its section and SeqWaits is 0", seed)
			}
		} else {
			freeRuns++
			if st.SeqWaits != 0 {
				t.Fatalf("seed %d: no claim found a store inside and SeqWaits is %d", seed, st.SeqWaits)
			}
		}
		for _, kv := range [][2]uint64{{8, 80}, {10, 100}} {
			if got := a.Lookup(key64(kv[0]), nil); !slices.Equal(got, []uint64{kv[1]}) {
				t.Fatalf("seed %d: key %d = %v, want [%d]", seed, kv[0], got, kv[1])
			}
		}
		a.Release()
		b.Release()
		tr.Close()
	}
	if parkedRuns == 0 || freeRuns == 0 {
		t.Fatalf("a claim met a parked store in %d schedules and a free word in %d; want both", parkedRuns, freeRuns)
	}
	t.Logf("a claim met a parked store in %d of 32 schedules", parkedRuns)
}
