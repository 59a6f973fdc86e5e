package core

import (
	"bytes"
	"runtime"

	"repro/internal/obs"
)

// split performs the three-stage node split of Appendix A.1 on a node
// whose consolidated content c exceeds the maximum node size.
//
//	Stage I:   materialize the upper half as a new base node and publish
//	           it in the mapping table under a fresh logical ID.
//	Stage II:  append a ∆split to the node, shrinking its key range to
//	           [lowKey, splitKey) and pointing its right-sibling link at
//	           the new node ("half-split").
//	Stage III: post the ∆separator to the parent so the new node becomes
//	           reachable without chasing sibling links.
//
// The root is handled by splitRoot: it is replaced wholesale, so split
// deltas never appear on the root.
func (s *Session) split(id nodeID, head *delta, c collected, parentID nodeID, parentHead *delta) {
	t := s.t
	if id == t.root {
		s.splitRoot(head, c)
		return
	}
	mid, ok := splitPoint(c.keys)
	if !ok {
		// Every key is identical (non-unique pile-up): splitting is
		// impossible, so install the oversized base and move on.
		nb := s.buildBase(c, head, true)
		if t.cas(id, head, nb) {
			s.stats.consolidations.Add(1)
			s.emit(obs.EvConsolidate, id, uint64(head.depth), uint64(nb.size))
			s.retireChain(head, true)
		} else {
			s.stats.casFailures.Add(1)
		}
		return
	}
	splitKey := c.keys[mid]
	if t.opts.anyFlatNodes() {
		// c.keys may alias the retired chain's arena; the split key
		// outlives it as node bounds and separator keys.
		splitKey = cloneBound(splitKey)
	}

	// Stage I: the new right sibling.
	rid := t.mt.Allocate()
	right := s.buildBase(collected{
		keys: c.keys[mid:], vals: sliceVals(c.vals, mid), vers: sliceVals(c.vers, mid), kids: sliceKids(c.kids, mid), leaf: c.leaf,
	}, head, true)
	right.lowKey = splitKey
	schedPoint(SPSplitPublish, id, rid, splitKey)
	t.mt.Store(rid, right)

	// Stage II: the ∆split.
	sd := newSMO(kSplit)
	sd.inheritFrom(head)
	sd.key = splitKey
	sd.child = rid
	sd.nextKey = head.highKey
	sd.highKey = splitKey
	sd.rightSib = rid
	sd.size = int32(mid)
	sd.offset = -1
	schedPoint(SPSplitDelta, id, rid, splitKey)
	if !t.cas(id, head, sd) {
		// Nobody has seen rid; recycle it immediately.
		t.mt.Recycle(rid)
		s.stats.casFailures.Add(1)
		return
	}
	s.stats.splits.Add(1)
	s.emit(obs.EvSplit, id, rid, uint64(mid))

	// Stage III: make the new node reachable from the parent.
	s.postSeparator(splitKey, rid, sd.nextKey, id, parentID, parentHead, c.leaf)

	// Fold the left half into a consolidated base. Failure just means a
	// concurrent append; a later consolidation will fold the split.
	left := s.buildBase(collected{
		keys: c.keys[:mid:mid], vals: sliceVals(c.vals, -mid), vers: sliceVals(c.vers, -mid), kids: sliceKids(c.kids, -mid), leaf: c.leaf,
	}, head, true)
	left.highKey = splitKey
	left.rightSib = rid
	schedPoint(SPSplitLeftFold, id, rid, nil)
	if t.cas(id, sd, left) {
		s.stats.consolidations.Add(1)
		s.retireChain(head, true)
	}
}

// sliceVals returns vals[mid:] for mid >= 0 or vals[:-mid] for mid < 0,
// tolerating nil slices (inner nodes have no vals; leaves have no kids).
// A left half's capacity ends at -mid: InPlaceLeafUpdates appends to a
// base's slices, and an append into spare capacity would overwrite the
// right half's first item.
func sliceVals(vals []uint64, mid int) []uint64 {
	if vals == nil {
		return nil
	}
	if mid >= 0 {
		return vals[mid:]
	}
	return vals[:-mid:-mid]
}

func sliceKids(kids []nodeID, mid int) []nodeID {
	if kids == nil {
		return nil
	}
	if mid >= 0 {
		return kids[mid:]
	}
	return kids[:-mid]
}

// splitPoint picks the middle position whose key differs from its left
// neighbour, so equal keys (non-unique mode) never straddle a split.
func splitPoint(keys [][]byte) (int, bool) {
	n := len(keys)
	mid := n / 2
	for i := mid; i < n; i++ {
		if !bytes.Equal(keys[i], keys[i-1]) {
			return i, true
		}
	}
	for i := mid - 1; i > 0; i-- {
		if !bytes.Equal(keys[i], keys[i-1]) {
			return i, true
		}
	}
	return 0, false
}

// splitRoot replaces an oversized root with a new root over two fresh
// halves in a single CaS on the root's mapping entry. The root keeps its
// logical ID forever, so no other node's routing is affected.
func (s *Session) splitRoot(head *delta, c collected) {
	t := s.t
	mid, ok := splitPoint(c.keys)
	if !ok {
		return
	}
	splitKey := c.keys[mid]
	if t.opts.anyFlatNodes() {
		splitKey = cloneBound(splitKey)
	}
	lid, rid := t.mt.Allocate(), t.mt.Allocate()

	left := s.buildBase(collected{
		keys: c.keys[:mid:mid], vals: sliceVals(c.vals, -mid), vers: sliceVals(c.vers, -mid), kids: sliceKids(c.kids, -mid), leaf: c.leaf,
	}, head, true)
	left.highKey = splitKey
	left.rightSib = rid
	right := s.buildBase(collected{
		keys: c.keys[mid:], vals: sliceVals(c.vals, mid), vers: sliceVals(c.vers, mid), kids: sliceKids(c.kids, mid), leaf: c.leaf,
	}, head, true)
	right.lowKey = splitKey
	t.mt.Store(lid, left)
	t.mt.Store(rid, right)

	newRoot := newBaseNode(kInnerBase)
	newRoot.size = 2
	newRoot.kids = []nodeID{lid, rid}
	t.setBaseKeys(newRoot, [][]byte{nil, splitKey})
	if s.t.opts.Preallocate {
		newRoot.slab = s.t.getSlab(false)
	}
	schedPoint(SPSplitRoot, t.root, rid, splitKey)
	if !t.cas(t.root, head, newRoot) {
		t.mt.Recycle(lid)
		t.mt.Recycle(rid)
		s.stats.casFailures.Add(1)
		return
	}
	s.stats.splits.Add(1)
	s.emit(obs.EvSplit, t.root, rid, uint64(mid))
	s.retireChain(head, true)
}

// postSeparator publishes the (splitKey → rightID) separator in the
// parent, retrying with fresh parent discovery until it lands or is found
// already present. Giving up is safe — the new node stays reachable via
// the sibling link — but each retry re-descends from the root, so in
// practice the loop finishes in one or two rounds.
func (s *Session) postSeparator(splitKey []byte, rightID nodeID, nextKey []byte, leftID, parentID nodeID, parentHead *delta, childIsLeaf bool) {
	const maxAttempts = 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if parentID != invalidNode && parentHead != nil {
			if s.completeSplitParts(parentID, parentHead, splitKey, rightID, nextKey, childIsLeaf) {
				return
			}
		}
		schedPoint(SPSepRetry, leftID, rightID, splitKey)
		parentID, parentHead = invalidNode, nil
		pid, phead, done, ok := s.findParent(splitKey, leftID, rightID)
		if done {
			return
		}
		if ok {
			parentID, parentHead = pid, phead
			continue
		}
		s.stats.aborts.Add(1)
		runtime.Gosched()
	}
}

// findParent descends from the root looking for the inner node that
// currently routes splitKey to leftID (the unposted-parent) or rightID
// (separator already posted; done=true).
func (s *Session) findParent(splitKey []byte, leftID, rightID nodeID) (nodeID, *delta, bool, bool) {
	t := s.t
	id := t.root
	for hops := 0; hops < maxTraversalHops; hops++ {
		head := t.load(id)
		if head == nil || head.kind == kAbort || head.kind == kRemove {
			return 0, nil, false, false
		}
		if head.isLeaf {
			return 0, nil, false, false
		}
		if head.highKey != nil && keyGE(splitKey, head.highKey) {
			if head.rightSib == invalidNode {
				return 0, nil, false, false
			}
			id = head.rightSib
			continue
		}
		child, ok := s.routeInner(head, splitKey)
		if !ok {
			return 0, nil, false, false
		}
		switch child {
		case rightID:
			return 0, nil, true, false
		case leftID:
			return id, head, false, true
		}
		id = child
	}
	return 0, nil, false, false
}

// completeSplitParts posts a ∆separator (sepKey → child, bounded by
// nextKey) into the parent if absent. Reports success (posted, already
// present, or moot); false means the snapshot went stale and the caller
// must rediscover the parent. childIsLeaf is the level of the node the
// separator routes to, used to recognize ID reuse.
func (s *Session) completeSplitParts(parentID nodeID, parentHead *delta, sepKey []byte, child nodeID, nextKey []byte, childIsLeaf bool) bool {
	if got, ok := s.routeInner(parentHead, sepKey); ok && got == child {
		return true
	}
	if parentHead.highKey != nil && keyGE(sepKey, parentHead.highKey) {
		return false
	}
	switch parentHead.kind {
	case kAbort, kRemove:
		return false
	}
	if smoRaceGuards {
		// Liveness guard (fix for the unposted-separator race, mode b):
		// a delayed Stage III must never post a separator for a node
		// that has meanwhile been merged away — the victim's ID may
		// already be recycled (nil mapping entry, or reused by an
		// unrelated node), and the post would install a permanently
		// dangling route that wedges every traversal of the range. The
		// node is gone exactly when its mapping entry is nil, carries a
		// ∆remove, or no longer matches the split that created it
		// (different low key or level after ID reuse). Declaring the
		// post moot is safe: a separator's only job is reachability,
		// and the node no longer exists to be reached.
		//
		// The check is not a racy best-effort: any merge that removes
		// child must first ∆abort-lock and then ∆separator-delete the
		// one inner node currently routing child's low key — the same
		// node this post is about to CaS. Either the load below already
		// sees the ∆remove, or the merge's parent update invalidates
		// parentHead and the CaS fails into rediscovery.
		ch := s.t.load(child)
		if ch == nil || ch.kind == kRemove ||
			ch.isLeaf != childIsLeaf || !sameKey(ch.lowKey, sepKey) {
			return true
		}
	}
	sep := s.allocDelta(parentHead)
	if sep == nil {
		// Parent slab exhausted: consolidate it, then rediscover.
		s.stats.slabFull.Add(1)
		s.consolidateID(parentID, parentHead, invalidNode, nil, false)
		return false
	}
	sep.inheritFrom(parentHead)
	sep.kind = kInnerInsert
	sep.size = parentHead.size + 1
	sep.key = sepKey
	sep.smoData = &smoData{child: child, nextKey: nextKey}
	sep.offset = -1
	schedPoint(SPSepPost, parentID, child, sepKey)
	if !s.t.cas(parentID, parentHead, sep) {
		s.stats.casFailures.Add(1)
		return false
	}
	s.maybeConsolidate(parentID, sep)
	return true
}

// tryMerge initiates the node-merge SMO of Appendix A.2, serialized on the
// parent with the ∆abort protocol of Appendix B:
//
//	Stage 0:   write-lock the parent by appending a ∆abort.
//	Stage I:   append a ∆remove to the victim, diverting all traffic to
//	           the left sibling.
//	Stage II:  append a ∆merge to the left sibling, absorbing the
//	           victim's content.
//	Stage III: replace the ∆abort with a ∆separator-delete in one CaS,
//	           removing the victim from the parent and unlocking it.
//
// Failure before Stage I unwinds by removing the ∆abort; failure is
// impossible afterwards because the parent lock stabilizes both siblings.
func (s *Session) tryMerge(parentID nodeID, parentHead *delta, id nodeID, head *delta) {
	t := s.t
	if id == t.root || head.lowKey == nil {
		return
	}
	// The victim must not be its parent's leftmost child: merging is only
	// allowed into a left sibling under the same parent.
	if sameKey(head.lowKey, parentHead.lowKey) {
		return
	}
	switch parentHead.kind {
	case kAbort, kRemove:
		return
	}

	// Stage 0: lock the parent.
	ab := &delta{kind: kAbort}
	ab.inheritFrom(parentHead)
	schedPoint(SPMergeLock, parentID, id, head.lowKey)
	if !t.cas(parentID, parentHead, ab) {
		s.stats.casFailures.Add(1)
		return
	}
	unlock := func() {
		schedPoint(SPMergeUnlock, parentID, id, nil)
		if !t.cas(parentID, ab, parentHead) {
			panic("core: lost ∆abort ownership")
		}
	}

	// Stage I: remove the victim. Reload: deltas may have landed since
	// consolidation; if the node regrew past the merge threshold, or is
	// itself mid-SMO, abandon.
	h := t.load(id)
	if h == nil {
		unlock()
		return
	}
	switch h.kind {
	case kRemove, kAbort, kSplit:
		unlock()
		return
	}
	mergeSize := s.t.opts.InnerMergeSize
	if h.isLeaf {
		mergeSize = s.t.opts.LeafMergeSize
	}
	if int(h.size) >= mergeSize {
		unlock()
		return
	}
	if smoRaceGuards {
		// Routing guard (fix for the unposted-separator race, mode a):
		// a node is mergeable only if the parent actually routes its
		// low key to it — i.e. the separator created with it has been
		// posted. A half-split's right sibling is reachable through
		// sibling links alone while its split's Stage III is still in
		// flight, and a traversal that chased into it hands tryMerge a
		// parent that has never heard of it. Merging it would post a
		// ∆separator-delete for a separator that does not exist
		// (undercounting the parent's size attribute — the lost-∆delete
		// validation failure) and leave the late separator post to
		// resurrect a route to the recycled victim (the all-workers
		// wedge). The parent's chain is frozen under our ∆abort, so
		// routing parentHead here is stable until Stage III.
		if got, ok := s.routeInner(parentHead, h.lowKey); !ok || got != id {
			unlock()
			return
		}
		// Coverage guard (fix for the folded-split tail wedge, mode c):
		// the parent must not still route the victim's HIGH key back to
		// the victim. If it does, the separator created with the victim
		// covers more than the victim's current range — the victim once
		// split, folded its ∆split, and the new sibling's separator was
		// never posted (postSeparator gave up), leaving the tail of the
		// range reachable only through the victim's sibling link. Merging
		// such a victim is unsound: Stage III's ∆separator-delete routes
		// only [leftKey, rm.highKey) to the left sibling, so the tail
		// [rm.highKey, next separator) falls through to the stale base
		// separator and lands on the recycled victim — a permanent stale
		// route that wedges every operation on those keys until the
		// parent happens to consolidate (which the wedge itself then
		// starves; this was the all-workers bwstress/soak livelock).
		// Refusing is safe: the half-split state stays fully reachable
		// via sibling links, exactly like an unposted sibling under the
		// routing guard above.
		if h.highKey != nil && keyLT(h.highKey, parentHead.highKey) {
			if got, ok := s.routeInner(parentHead, h.highKey); !ok || got == id {
				unlock()
				return
			}
		}
	}
	rm := &delta{kind: kRemove}
	rm.inheritFrom(h)
	schedPoint(SPMergeRemove, id, 0, h.lowKey)
	if !t.cas(id, h, rm) {
		s.stats.casFailures.Add(1)
		unlock()
		return
	}

	// Stage II: absorb into the left sibling. The parent lock keeps the
	// left sibling from merging away, so failures here are transient
	// (e.g. the left sibling is itself the ∆abort-locked parent of a
	// lower-level merge that is about to finish) and the loop retries.
	leftID, leftSepKey, ok := s.mergeIntoLeft(parentHead, id, rm)
	if !ok {
		// The merge cannot proceed (the left sibling is busy with its
		// own SMO). Retract the ∆remove and give up — leaving it behind
		// would wedge the node forever. The retraction is safe because
		// only the initiator ever posts the ∆merge (helpers observing
		// the ∆remove restart instead of helping Stage II), so nothing
		// can have absorbed the victim; and the CaS cannot lose because
		// nothing else publishes onto a removed node's chain.
		schedPoint(SPRemoveRetract, id, 0, nil)
		if !t.cas(id, rm, h) {
			panic("core: ∆remove retraction lost an impossible race")
		}
		unlock()
		return
	}

	// Stage III: drop the victim's separator and unlock in one CaS. The
	// ∆separator-delete links directly to the pre-lock head, so the
	// published chain never contains the ∆abort.
	sd := newSMO(kInnerDelete)
	sd.inheritFrom(parentHead)
	sd.size = parentHead.size - 1
	sd.key = rm.lowKey
	sd.leftKey = leftSepKey
	sd.leftChild = leftID
	sd.nextKey = rm.highKey
	sd.offset = -1
	schedPoint(SPSepDelete, parentID, id, rm.lowKey)
	if !t.cas(parentID, ab, sd) {
		panic("core: lost ∆abort ownership during merge")
	}
	s.stats.merges.Add(1)
	s.emit(obs.EvMerge, id, leftID, 0)

	// The victim's ID is recycled once no traversal can still hold it.
	s.h.Retire(func() { t.mt.Recycle(id) })
	s.maybeConsolidate(parentID, sd)
}

// mergeIntoLeft locates the node directly left-adjacent to the victim —
// starting from the parent's routing and chasing sibling links past any
// unposted splits — and posts the ∆merge (or finds it already posted by a
// helper). It returns the parent-routed left child and its separator key,
// which Stage III needs for the ∆separator-delete's fast-path interval.
func (s *Session) mergeIntoLeft(parentHead *delta, victim nodeID, rm *delta) (nodeID, []byte, bool) {
	origLeft, ok := s.routeInnerLeft(parentHead, rm.lowKey)
	if !ok || origLeft == victim {
		return 0, nil, false
	}
	var leftSepKey []byte
	cur := origLeft
	first := true
	transient := 0
	for spins := 0; ; spins++ {
		if spins > 0 && spins%1024 == 0 {
			runtime.Gosched()
		}
		lhead := s.t.load(cur)
		if lhead == nil {
			return 0, nil, false
		}
		if first {
			leftSepKey = lhead.lowKey
			first = false
		}
		switch lhead.kind {
		case kAbort, kRemove:
			// The left sibling is locked by another SMO or mid-removal.
			// Waiting could form a cycle of merge initiators waiting on
			// each other's locks, so give up quickly: the caller retracts
			// the ∆remove and the merge is retried on a later
			// consolidation.
			transient++
			if transient > 64 {
				return 0, nil, false
			}
			schedPoint(SPMergeLeftSpin, cur, victim, rm.lowKey)
			runtime.Gosched()
			continue
		}
		cmp := 1
		if lhead.highKey != nil {
			cmp = bytes.Compare(lhead.highKey, rm.lowKey)
		}
		switch {
		case cmp < 0:
			if lhead.rightSib == invalidNode || lhead.rightSib == victim {
				return 0, nil, false
			}
			cur = lhead.rightSib
		case cmp > 0:
			// The left node's range extends past the victim's low key.
			// Helpers never post Stage II ∆merges in this protocol (they
			// restart on ∆remove instead), so no node can legitimately
			// cover the victim's range: this is a stale snapshot or a
			// stale route. Claiming success here without a posted ∆merge
			// would let Stage III recycle the victim with its content
			// never absorbed — silent data loss. Abandon; the caller
			// retracts the ∆remove and the merge is retried later.
			if smoRaceGuards {
				return 0, nil, false
			}
			return origLeft, leftSepKey, true
		default:
			m := newSMO(kMerge)
			m.inheritFrom(lhead)
			m.key = rm.lowKey
			m.mergeContent = rm.next
			m.deleteID = victim
			m.highKey = rm.highKey
			m.rightSib = rm.rightSib
			m.size = lhead.size + rm.size
			m.offset = -1
			schedPoint(SPMergeDelta, cur, victim, rm.lowKey)
			if s.t.cas(cur, lhead, m) {
				s.maybeConsolidate(cur, m)
				return origLeft, leftSepKey, true
			}
			s.stats.casFailures.Add(1)
		}
	}
}

// sameKey compares keys where nil means -inf.
func sameKey(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return bytes.Equal(a, b)
}

// findParentByChild descends from the root to locate the inner node that
// currently routes lowKey to child, returning its snapshot for a merge
// attempt. Used when a consolidation discovers an undersized node but has
// no parent snapshot (inner-node chains are consolidated from separator
// posts, which carry none).
func (s *Session) findParentByChild(lowKey []byte, child nodeID) (nodeID, *delta) {
	t := s.t
	id := t.root
	for hops := 0; hops < maxTraversalHops; hops++ {
		head := t.load(id)
		if head == nil || head.kind == kAbort || head.kind == kRemove || head.isLeaf {
			return invalidNode, nil
		}
		if head.highKey != nil && keyGE(lowKey, head.highKey) {
			if head.rightSib == invalidNode {
				return invalidNode, nil
			}
			id = head.rightSib
			continue
		}
		next, ok := s.routeInner(head, lowKey)
		if !ok {
			return invalidNode, nil
		}
		if next == child {
			return id, head
		}
		id = next
	}
	return invalidNode, nil
}
