package core

import "bytes"

// traversal is the per-operation descent state: the current node and the
// parent snapshot needed to post or complete structural modifications.
// Restarting from the root (the paper's recovery strategy for every failed
// CaS, §2.2) simply re-runs descend.
type traversal struct {
	id         nodeID
	head       *delta
	parentID   nodeID
	parentHead *delta
}

// descend walks from the root to the leaf whose range covers key, helping
// any unfinished SMO it encounters. It returns false when the operation
// must restart from the root.
func (s *Session) descend(key []byte, tr *traversal) bool {
	t := s.t
	id := t.root
	parentID := invalidNode
	var parentHead *delta

	for hops := 0; ; hops++ {
		if hops > maxTraversalHops {
			// Defensive bound: an inconsistent traversal loops back to
			// the root rather than spinning forever.
			return false
		}
		head := t.load(id)
		if head == nil {
			return false // node recycled under us
		}
		switch head.kind {
		case kAbort:
			// A merge holds this node write-locked (Appendix B).
			return false
		case kRemove:
			// The node is being merged into its left sibling; help along
			// and continue at the left branch (Appendix A.2).
			schedPoint(SPDescendRemove, id, 0, key)
			leftID, ok := s.helpMerge(parentID, parentHead, id, head)
			if !ok {
				return false
			}
			id = leftID
			continue
		}

		// Fused route for a consolidated inner base — the common state
		// between SMOs. An interior routing position is itself the range
		// proof: separators sit inside [lowKey, highKey) with sep[0] ==
		// lowKey (Validate pins both), so sep[pos-1] <= key < sep[pos]
		// implies lowKey <= key < highKey and the two boundary-key
		// compares (each a touch of a separately-allocated key) can be
		// skipped along with the sibling-chase logic they guard. Boundary
		// positions prove nothing and fall through to the guarded path,
		// which re-routes; that re-search is rare (~2/fanout of levels).
		if head.kind == kInnerBase {
			b := head.baseData
			if pos := innerRoutePos(b, key); pos > 0 && pos < b.baseLen() {
				parentID, parentHead = id, head
				id = b.kids[pos-1]
				continue
			}
		}

		// Range guards. A node whose low key exceeds the search key can
		// only be reached through a stale route (e.g. a recycled node ID
		// observed via an old parent snapshot); restart rather than
		// operate out of range.
		if head.lowKey != nil && !keyGE(key, head.lowKey) {
			return false
		}
		// Blink-tree high-key check: the logical node no longer covers
		// key, so chase the right-sibling link. If the head is an
		// unfinished split, help post its separator first (§2.4).
		if head.highKey != nil && keyGE(key, head.highKey) {
			if head.kind == kSplit && parentID != invalidNode && parentHead != nil {
				s.completeSplitParts(parentID, parentHead, head.key, head.child, head.nextKey, head.isLeaf)
			}
			if head.rightSib == invalidNode {
				return false
			}
			id = head.rightSib
			continue
		}

		if head.isLeaf {
			tr.id, tr.head = id, head
			tr.parentID, tr.parentHead = parentID, parentHead
			return true
		}

		child, ok := s.routeInner(head, key)
		if !ok {
			return false
		}
		parentID, parentHead = id, head
		id = child
	}
}

// maxTraversalHops bounds a single descent; generous enough for any sane
// tree (depth x sibling chases) while catching cycles in debug scenarios.
const maxTraversalHops = 4096

// routeInner resolves which child of an inner logical node covers key by
// walking its delta chain. It never dereferences the mapping table; all
// information lives in the chain (Table 1 attributes).
func (s *Session) routeInner(head *delta, key []byte) (nodeID, bool) {
	// Fast path: a consolidated inner node is a bare base — the common
	// case between SMOs with the default inner chain length of 2. Route
	// straight through the base probe without entering the chain loop.
	if head.kind == kInnerBase {
		return routeBaseInner(head.baseData, key), true
	}
	d := head
	for {
		switch d.kind {
		case kInnerInsert:
			// Separator posted by a split: routes [key, nextKey) to child.
			if keyGE(key, d.key) && keyLT(key, d.nextKey) {
				return d.child, true
			}
		case kInnerDelete:
			// Separator removed by a merge: the left sibling now covers
			// [leftKey, nextKey).
			if keyGE(key, d.leftKey) && keyLT(key, d.nextKey) {
				return d.leftChild, true
			}
		case kSplit:
			// Keys at or above the split key moved to the new sibling.
			// The caller's high-key check should have routed there, but a
			// racing consolidation can leave a stale head; restart.
			if keyGE(key, d.key) {
				return 0, false
			}
		case kMerge:
			// The absorbed right branch holds keys >= the merge key.
			if keyGE(key, d.key) {
				d = d.mergeContent
				continue
			}
		case kInnerBase:
			return routeBaseInner(d.baseData, key), true
		case kRemove, kAbort:
			return 0, false
		default:
			// Leaf kinds cannot appear in an inner chain.
			return 0, false
		}
		s.chases++
		d = d.next
	}
}

// routeInnerLeft resolves the child covering keys immediately below key —
// "always go left when a separator equals the search key" (Appendix C.2).
// Used by backward iteration and left-sibling discovery during merges.
func (s *Session) routeInnerLeft(head *delta, key []byte) (nodeID, bool) {
	d := head
	for {
		switch d.kind {
		case kInnerInsert:
			if keyGT(key, d.key) && keyLE(key, d.nextKey) {
				return d.child, true
			}
		case kInnerDelete:
			if keyGT(key, d.leftKey) && keyLE(key, d.nextKey) {
				return d.leftChild, true
			}
		case kSplit:
			if keyGT(key, d.key) {
				return 0, false
			}
		case kMerge:
			if keyGT(key, d.key) {
				d = d.mergeContent
				continue
			}
		case kInnerBase:
			return routeBaseInnerLeft(d.baseData, key), true
		default:
			return 0, false
		}
		s.chases++
		d = d.next
	}
}

// helpMerge redirects a traversal that hit a ∆remove record: it locates
// the left sibling through the parent snapshot, posts the ∆merge if no one
// has yet (Stage II), and returns the node now owning the removed range.
// Any ambiguity — stale snapshot, racing SMO — returns false and the
// operation restarts from the root; the merge initiator is guaranteed to
// finish independently because it owns the parent's ∆abort lock.
func (s *Session) helpMerge(parentID nodeID, parentHead *delta, id nodeID, rm *delta) (nodeID, bool) {
	if parentID == invalidNode || parentHead == nil {
		return 0, false
	}
	if rm.lowKey == nil {
		return 0, false // leftmost node is never merged
	}
	leftID, ok := s.routeInnerLeft(parentHead, rm.lowKey)
	if !ok || leftID == id {
		return 0, false
	}
	// The parent-routed left sibling may itself have split since; walk
	// right until we find the node whose high key meets the removed
	// node's range.
	for hops := 0; hops < maxTraversalHops; hops++ {
		lhead := s.t.load(leftID)
		if lhead == nil {
			return 0, false
		}
		switch lhead.kind {
		case kAbort, kRemove:
			return 0, false
		}
		cmp := 1
		if lhead.highKey != nil {
			cmp = bytes.Compare(lhead.highKey, rm.lowKey)
		}
		switch {
		case cmp < 0:
			// Still left of the removed node; chase the sibling link.
			if lhead.rightSib == invalidNode || lhead.rightSib == id {
				return 0, false
			}
			leftID = lhead.rightSib
		case cmp > 0:
			// The left sibling's range already covers the removed node's
			// low key: the ∆merge has been posted (or consolidated in).
			return leftID, true
		default:
			// Exactly adjacent: the merge's Stage II has not happened
			// yet. Only the initiator — who owns the parent's ∆abort —
			// posts the ∆merge: if helpers also posted it, an initiator
			// abandoning a blocked merge could never retract its ∆remove
			// safely (a helper might absorb the victim in the same
			// instant, leaving it doubly reachable). Restart and let the
			// initiator finish; it completes or retracts within a few
			// microseconds.
			return 0, false
		}
	}
	return 0, false
}
