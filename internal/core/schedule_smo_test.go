package core

// Deterministic replay of the (closed) high-pressure SMO bug: a split's
// Stage III separator post is delayed, the unposted right sibling
// drains and merges away, and the late post lands on a node that no
// longer exists. runUnpostedSeparatorRace drives that exact
// interleaving through the sync-point schedule layer in milliseconds —
// the scenario the 45-second zz_repro_test.go flake needed luck to hit.
//
// The driver is shared by the green regression test
// (schedule_smo_green_test.go: with the SMO race guards the merge is
// refused and the tree stays valid) and the red self-test
// (schedule_smo_red_test.go, -tags smoracebug: with the guards compiled
// out both historical failure modes reproduce, proving the harness
// actually replays the bug).

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sepRaceOutcome captures the checkpoints of the unposted-separator
// interleaving.
type sepRaceOutcome struct {
	sepKey []byte // separator key of the parked split
	victim uint64 // the split's right sibling (reachable only via sibling links)

	// Observed while the separator post was parked and the victim's
	// range was drained:
	mergeLocks    int64  // merge attempts on the victim (SPMergeLock crossings)
	merges        uint64 // merges that actually completed
	errAfterMerge error  // Validate() after the drain/merge phase

	// deleted records which keys the drain phase actually removed
	// (i.e. which inserts had landed before the writer parked).
	deleted map[uint64]bool

	// Observed after releasing the parked post and joining the writer:
	errAfterPost  error // Validate() right after the late post could land
	routeDangling bool  // does the tree route sepKey to a nil/∆remove node?
	finalContent  map[uint64]uint64
	errFinal      error // Validate() at the very end
}

// runUnpostedSeparatorRace builds a two-goroutine targeted
// interleaving:
//
//  1. A writer inserts keys 1..64; its first leaf split parks at
//     SPSepPost, leaving the right sibling published but unposted.
//  2. The main goroutine deletes the low half first (folding the left
//     node's ∆split, so later descents reach the victim purely via
//     sibling links with no help-along separator post), then drains the
//     victim's range until consolidation attempts to merge it away.
//  3. The parked separator post is released and the writer finishes.
//
// Pre-fix, step 2 merges the never-posted sibling (parent size
// undercount — the lost-∆delete signature) and step 3 resurrects a
// route to the dead node (the all-workers wedge). Post-fix, the merge
// is refused while the separator is in flight and the late post lands
// normally.
func runUnpostedSeparatorRace(t *testing.T) sepRaceOutcome {
	t.Helper()
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2

	var out sepRaceOutcome
	hold := make(chan struct{})
	parked := make(chan []byte, 1)
	var parkedOnce atomic.Bool
	var victim atomic.Uint64
	var mergeLocks atomic.Int64

	restore := SetSchedHook(func(pi PointInfo) {
		switch pi.Point {
		case SPSepPost:
			if parkedOnce.CompareAndSwap(false, true) {
				victim.Store(pi.Child)
				parked <- append([]byte(nil), pi.Key...)
				<-hold // Stage III parks here
			}
		case SPMergeLock:
			if pi.Child != 0 && pi.Child == victim.Load() {
				mergeLocks.Add(1)
			}
		}
	})
	defer restore()

	tr := New(opts)
	defer tr.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s := tr.NewSession()
		defer s.Release()
		for i := uint64(1); i <= 64; i++ {
			s.Insert(key64(i), i)
		}
	}()

	select {
	case out.sepKey = <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("split initiator never reached SPSepPost")
	}
	out.victim = victim.Load()

	s := tr.NewSession()
	defer s.Release()
	out.deleted = map[uint64]bool{}
	for i := uint64(1); i <= 64; i++ {
		if s.Delete(key64(i), 0) {
			out.deleted[i] = true
		}
	}
	out.mergeLocks = mergeLocks.Load()
	out.merges = tr.Stats().Merges
	out.errAfterMerge = tr.Validate()

	close(hold)
	<-done

	out.errAfterPost = tr.Validate()
	if path := tr.DescendPath(out.sepKey); len(path) > 0 {
		last := path[len(path)-1]
		out.routeDangling = last.Kind == "<nil>" || last.Kind == kRemove.String()
		if out.routeDangling {
			t.Logf("poisoned path for %x:\n%s", out.sepKey, FormatPath(path))
		}
	}
	out.finalContent = map[uint64]uint64{}
	var vals []uint64
	for i := uint64(1); i <= 64; i++ {
		vals = s.Lookup(key64(i), vals[:0])
		for _, v := range vals {
			out.finalContent[i] = v
		}
	}
	out.errFinal = tr.Validate()
	return out
}

// foldedTailOutcome captures the checkpoints of the folded-split-tail
// interleaving (mode c of the high-pressure bug): a leaf's split folds
// with its separator permanently unposted, and the leaf then drains and
// becomes a merge candidate. Merging it is unsound — the parent's base
// separator covers the whole pre-split range, but the merge's
// ∆separator-delete re-routes only the left part, leaving the tail
// routed into the recycled victim.
type foldedTailOutcome struct {
	victim   uint64 // the leaf that half-split and then drained
	splitKey uint64 // its fold point; [splitKey, high) lives in the unposted sibling
	high     uint64 // its pre-split high key
	sepFails int64  // separator-post CaSes failed by injection

	mergeLocks int64  // merge attempts on the victim (SPMergeLock crossings)
	merges     uint64 // merges that completed during the drain

	errAfterDrain error // Validate() after the drain/merge phase
	tailDangling  bool  // does the tree route a tail key to a dead node?
	survivors     map[uint64]uint64
	model         map[uint64]uint64
	errFinal      error
}

// runFoldedSplitTailRace deterministically builds the folded-split-tail
// scenario in a single goroutine:
//
//  1. Build a stable tree over sparse keys and pick a mid-tree victim
//     leaf (not its parent's leftmost child).
//  2. Arm SetCASFailHook to fail every separator post for the victim's
//     next split sibling, then insert fresh in-range keys until the
//     victim splits. postSeparator exhausts its attempts, the ∆split
//     folds, and the new sibling is reachable only via sibling links —
//     while the parent's base separator still covers the victim's
//     ENTIRE pre-split range.
//  3. Drain the victim's remaining left half until consolidation tries
//     to merge it away.
//
// Pre-fix, step 3 merges the victim: Stage III's ∆separator-delete
// covers only [leftKey, splitKey), so tail keys [splitKey, high) fall
// through to the stale base separator and route into the recycled
// victim — the permanent all-workers wedge seen in the ownership soak and the
// BWTREE_REPRO soak. Post-fix, the coverage guard refuses the merge and
// the half-split stays fully reachable.
func runFoldedSplitTailRace(t *testing.T) foldedTailOutcome {
	t.Helper()
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 4
	opts.InnerMergeSize = 2

	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	var out foldedTailOutcome
	out.model = map[uint64]uint64{}

	// Step 1: sparse keyspace (multiples of 8) so leaves keep room for
	// fresh in-range inserts.
	for i := uint64(1); i <= 48; i++ {
		k := i * 8
		s.Insert(key64(k), k)
		out.model[k] = k
	}
	tr.ConsolidateAll()

	var victimID, m, h uint64
	for probe := uint64(64); probe <= 320; probe += 8 {
		path := tr.DescendPath(key64(probe))
		if len(path) < 2 {
			continue
		}
		leaf, parent := path[len(path)-1], path[len(path)-2]
		if leaf.Note != "reached leaf" || leaf.LowKey == nil || leaf.HighKey == nil {
			continue
		}
		// Leftmost children are never merge victims.
		if parent.LowKey != nil && bytes.Equal(leaf.LowKey, parent.LowKey) {
			continue
		}
		victimID = uint64(leaf.ID)
		m = binary.BigEndian.Uint64(leaf.LowKey)
		h = binary.BigEndian.Uint64(leaf.HighKey)
		break
	}
	if victimID == 0 {
		t.Fatal("no suitable victim leaf found")
	}

	// Step 2: capture the victim's split sibling the instant it is
	// published, and fail every separator post that would make it
	// parent-reachable.
	var rid atomic.Uint64
	var mergeLocks atomic.Int64
	restoreSched := SetSchedHook(func(pi PointInfo) {
		switch pi.Point {
		case SPSplitPublish:
			if pi.Node == victimID {
				rid.Store(pi.Child)
			}
		case SPMergeLock:
			if pi.Child != 0 && pi.Child == victimID {
				mergeLocks.Add(1)
			}
		}
	})
	defer restoreSched()
	_, sepIns, _, _, _, _ := DeltaKindNames()
	var sepFails atomic.Int64
	restoreCAS := SetCASFailHook(func(ci CASInfo) bool {
		if ci.NewKind == sepIns && ci.Child != 0 && ci.Child == rid.Load() {
			sepFails.Add(1)
			return true
		}
		return false
	})

	splitsBefore := tr.Stats().Splits
	for k := m + 1; tr.Stats().Splits == splitsBefore; k++ {
		if k >= h {
			t.Fatal("victim leaf never split")
		}
		if s.Insert(key64(k), k) {
			out.model[k] = k
		}
	}
	restoreCAS()
	out.sepFails = sepFails.Load()

	// The victim's head must now end at the fold point.
	path := tr.DescendPath(key64(m))
	last := path[len(path)-1]
	if uint64(last.ID) != victimID || last.HighKey == nil {
		t.Fatalf("expected the folded victim at key %d, got:\n%s", m, FormatPath(path))
	}
	splitKey := binary.BigEndian.Uint64(last.HighKey)
	if splitKey <= m || splitKey >= h {
		t.Fatalf("implausible fold point %d for victim [%d, %d)", splitKey, m, h)
	}
	out.victim, out.splitKey, out.high = victimID, splitKey, h

	// Step 3: drain the victim's left half until consolidation attempts
	// the merge.
	mergesBefore := tr.Stats().Merges
	for i := m; i < splitKey; i++ {
		if s.Delete(key64(i), 0) {
			delete(out.model, i)
		}
	}
	out.mergeLocks = mergeLocks.Load()
	out.merges = tr.Stats().Merges - mergesBefore
	out.errAfterDrain = tr.Validate()

	// Outcome: the fold point itself is the first key of the unposted
	// sibling and was never deleted — post-fix it must stay reachable,
	// pre-fix its route ends in the merged-away victim.
	tail := tr.DescendPath(key64(splitKey))
	tl := tail[len(tail)-1]
	out.tailDangling = tl.Kind == "<nil>" || tl.Kind == kRemove.String() ||
		strings.Contains(tl.Note, "stale route")
	if out.tailDangling {
		t.Logf("poisoned tail path for %d:\n%s", splitKey, FormatPath(tail))
	}

	// Content check — skipped when the route dangles: operations on the
	// poisoned range would livelock by design.
	out.survivors = map[uint64]uint64{}
	if !out.tailDangling {
		var vals []uint64
		for k, want := range out.model {
			vals = s.Lookup(key64(k), vals[:0])
			if len(vals) == 1 && vals[0] == want {
				out.survivors[k] = vals[0]
			}
		}
	}
	out.errFinal = tr.Validate()
	return out
}
