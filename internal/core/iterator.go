package core

import (
	"bytes"
	"runtime"

	"repro/internal/obs"
)

// Iterator provides ordered forward and backward traversal (§3.2). It
// never operates on a mutable node: each positioning step pins one
// logical leaf as an immutable base node, so concurrent inserts, deletes,
// and SMOs cannot invalidate the cursor. A consolidated leaf is read in
// place; a leaf with a delta chain is consolidated and the iterator reads
// the base it published (see useLeaf). Moving past either end re-traverses
// the tree using the leaf's low or high key (Appendix C).
//
// An Iterator is owned by its Session and must not outlive it or be used
// concurrently with it from another goroutine.
type Iterator struct {
	s *Session

	// leaf is the current leaf's items: a published base's payload read
	// in place, or a private copy when the step could not publish one.
	// Items [0, n) lie below highKey.
	leaf    *baseData
	n       int
	lowKey  []byte
	highKey []byte
	pos     int
	valid   bool

	// warm absorbs the bytes read by the scan-pipelining prefetch
	// (Options.ScanPipelining); storing them into the iterator keeps the
	// touch loop from being optimized away. Each iterator is owned by one
	// session/goroutine, so the write is race-free.
	warm byte
}

// NewIterator returns an unpositioned iterator; call Seek, SeekFirst, or
// SeekToLast before use.
func (s *Session) NewIterator() *Iterator { return &Iterator{s: s} }

// Valid reports whether the iterator is positioned on an item. It is the
// precondition for Key and Value: it holds after a Seek variant or a
// Next/Prev that found an item, and stays false on a freshly created
// iterator and after the cursor moves past either end of the tree. Key
// and Value panic with a descriptive message when it does not hold.
func (it *Iterator) Valid() bool { return it.valid }

// mustBePositioned panics with an actionable message when the iterator is
// not on an item. Without this guard the access below would fail with a
// bare index-out-of-range that names neither the iterator nor the broken
// contract.
func (it *Iterator) mustBePositioned(method string) {
	if !it.valid || it.pos < 0 || it.pos >= it.n {
		panic("core: Iterator." + method + " called while not positioned on an item; " +
			"position with Seek/SeekFirst/SeekToLast and check Valid() before every access")
	}
}

// Key returns the current item's key. The slice is shared with the
// tree's immutable base node and must not be modified. Key panics unless
// Valid() holds.
func (it *Iterator) Key() []byte {
	it.mustBePositioned("Key")
	return it.leaf.baseKey(it.pos)
}

// Value returns the current item's value. Value panics unless Valid()
// holds.
func (it *Iterator) Value() uint64 {
	it.mustBePositioned("Value")
	return it.leaf.vals[it.pos]
}

// search returns the position of the current leaf's first item >= key.
func (it *Iterator) search(key []byte) int {
	pos, _ := it.leaf.baseSearchRange(key, 0, it.n)
	return pos
}

// loadNode makes the logical leaf covering key the current leaf.
func (it *Iterator) loadNode(key []byte) bool {
	s := it.s
	s.h.Enter()
	defer s.h.Exit()
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		it.useLeaf(&tr)
		if s.t.opts.ScanPipelining {
			it.prefetchRight(tr.head)
		}
		return true
	}
}

// useLeaf makes leaf tr.head, reached under the caller's epoch pin, the
// current leaf; both traversal directions go through it. A consolidated
// leaf is read in place: bases are immutable, and writers prepend deltas
// above one without disturbing it. A leaf with a delta chain is
// consolidated once, as a writer would (splits and merges included), and
// the iterator reads the base that publishes. If that CaS loses to a
// writer, the replayed copy serves instead, so a step neither retries nor
// replays a chain twice. InPlaceLeafUpdates mutates bases, so under it
// every step reads a private copy.
func (it *Iterator) useLeaf(tr *traversal) {
	s := it.s
	head := tr.head
	leaf := head.baseData
	switch {
	case s.t.opts.InPlaceLeafUpdates:
		t0 := s.phStart()
		leaf = copyLeaf(s.collect(head))
		s.phEnd(obs.PhaseChainWalk, t0, uint64(head.depth))
	case head.kind != kLeafBase:
		if c, nb := s.consolidateID(tr.id, head, tr.parentID, tr.parentHead, true); nb != nil {
			leaf = nb.baseData
		} else {
			leaf = copyLeaf(c)
		}
	}
	it.leaf = leaf
	it.lowKey, it.highKey = head.lowKey, head.highKey
	// Every base is built without keys at or above its high key; the end
	// index guards reading one in place against a base that is not.
	it.n = leaf.baseLen()
	if it.n > 0 && !keyLT(leaf.baseKey(it.n-1), head.highKey) {
		it.n, _ = leaf.baseSearch(head.highKey)
	}
}

// copyLeaf wraps collected leaf items as an unpublished slice-layout
// base payload.
func copyLeaf(c collected) *baseData {
	return &baseData{keys: c.keys, vals: c.vals}
}

// prefetchRight pipelines a forward scan: while the caller is about to
// emit the leaf useLeaf just pinned, resolve the right sibling's mapping
// entry and touch its base keys at cache-line stride so the next
// advanceNode finds them warm instead of paying a cold miss per probe.
// It runs inside loadNode's epoch pin, so the sibling's chain cannot be
// reclaimed mid-touch; a sibling mid-SMO is simply skipped — this is an
// optimization, never a correctness dependency.
func (it *Iterator) prefetchRight(head *delta) {
	sib := head.rightSib
	if sib == invalidNode {
		return
	}
	shead := it.s.t.load(sib)
	if shead == nil {
		return
	}
	base := shead.base
	if base == nil {
		return
	}
	// Cap the touch at a few KB: a leaf arena is typically smaller, and a
	// scan that stops inside the current leaf shouldn't have dragged an
	// unbounded sibling through the cache.
	const stride, budget = 64, 4096
	var w byte
	if base.offs != nil {
		a := base.arena
		n := min(len(a), budget)
		for i := 0; i < n; i += stride {
			w ^= a[i]
		}
	} else {
		// Slice layout: touching every key defeats the purpose, but the
		// header array itself is the first dependent load of every probe.
		n := min(len(base.keys), budget/stride)
		for i := 0; i < n; i++ {
			if k := base.keys[i]; len(k) > 0 {
				w ^= k[0]
			}
		}
	}
	it.warm = w
}

// loadNodeLeft makes the logical leaf immediately left of key
// (i.e. covering key-ε), using the backward traversal rule of Appendix
// C.2: when a separator equals the search key, take the next-smaller one.
func (it *Iterator) loadNodeLeft(key []byte) bool {
	s := it.s
	t := s.t
	s.h.Enter()
	defer s.h.Exit()
	spins := 0
restart:
	for {
		if spins > 2 {
			runtime.Gosched()
		}
		spins++
		id := t.root
		parentID := invalidNode
		var parentHead *delta
		for hops := 0; hops < maxTraversalHops; hops++ {
			head := t.load(id)
			if head == nil || head.kind == kAbort {
				s.stats.aborts.Add(1)
				continue restart
			}
			if head.kind == kRemove {
				leftID, ok := s.helpMerge(parentID, parentHead, id, head)
				if !ok {
					s.stats.aborts.Add(1)
					continue restart
				}
				id = leftID
				continue
			}
			// The target covers key-ε: it needs highKey >= key. A node
			// with highKey < key lies too far left; chase right.
			if head.highKey != nil && keyGT(key, head.highKey) {
				if head.rightSib == invalidNode {
					s.stats.aborts.Add(1)
					continue restart
				}
				id = head.rightSib
				continue
			}
			// Appendix C.2 abort rule: a concurrent SMO can hand us a
			// node that no longer lies strictly left of the search key.
			if head.lowKey != nil && !keyGT(key, head.lowKey) {
				s.stats.aborts.Add(1)
				continue restart
			}
			if head.isLeaf {
				it.useLeaf(&traversal{id: id, head: head, parentID: parentID, parentHead: parentHead})
				return true
			}
			child, ok := s.routeInnerLeft(head, key)
			if !ok {
				s.stats.aborts.Add(1)
				continue restart
			}
			parentID, parentHead = id, head
			id = child
		}
		s.stats.aborts.Add(1)
	}
}

// Seek positions the iterator at the smallest item with key >= key.
func (it *Iterator) Seek(key []byte) {
	checkKey(key)
	it.loadNode(key)
	it.pos = it.search(key)
	it.valid = true
	if it.pos >= it.n {
		it.advanceNode()
	}
}

// SeekFirst positions the iterator at the tree's smallest item.
func (it *Iterator) SeekFirst() {
	it.loadNode([]byte{0})
	// The leftmost leaf has a nil low key; an empty or drained leaf
	// advances to the right.
	it.pos = 0
	it.valid = true
	if it.n == 0 {
		it.advanceNode()
	}
}

// SeekToLast positions the iterator at the tree's largest item.
func (it *Iterator) SeekToLast() {
	// Walk to the rightmost leaf by always taking the last child: loading
	// with +inf is impossible, so chase high keys from the leftmost leaf
	// would be O(n); instead reuse backward stepping from beyond every
	// key: start at the rightmost node via repeated right-sibling chase.
	it.loadNode([]byte{0})
	for it.highKey != nil {
		if !it.loadNode(it.highKey) {
			it.valid = false
			return
		}
	}
	it.pos = it.n - 1
	it.valid = it.pos >= 0
	if !it.valid && it.lowKey != nil {
		it.valid = true
		it.pos = 0
		it.retreatNode()
	}
}

// Next moves to the next item in ascending key order.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.pos++
	if it.pos >= it.n {
		it.advanceNode()
	}
}

// Prev moves to the previous item in descending key order.
func (it *Iterator) Prev() {
	if !it.valid {
		return
	}
	it.pos--
	if it.pos < 0 {
		it.retreatNode()
	}
}

// advanceNode jumps to the next logical leaf (Appendix C.1): re-traverse
// with the exhausted leaf's high key and binary-search it, which lands
// correctly even if the next node merged or split meanwhile.
func (it *Iterator) advanceNode() {
	for {
		if it.highKey == nil {
			it.valid = false
			return
		}
		bound := it.highKey
		it.loadNode(bound)
		if pos := it.search(bound); pos < it.n {
			it.pos = pos
			return
		}
		// The node is empty past the bound (e.g. everything deleted);
		// keep walking right.
	}
}

// retreatNode jumps to the previous logical leaf (Appendix C.2).
func (it *Iterator) retreatNode() {
	for {
		if it.lowKey == nil {
			it.valid = false
			return
		}
		bound := it.lowKey
		it.loadNodeLeft(bound)
		// Position on the largest item strictly below bound.
		if pos := it.search(bound); pos > 0 {
			it.pos = pos - 1
			return
		}
		// Nothing below the bound in this leaf; continue left.
	}
}

// Scan visits at most n items in ascending order starting at the smallest
// key >= start, stopping early when visit returns false. It returns the
// number of items visited. This is the YCSB-E range-scan entry point.
func (s *Session) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.NewIterator()
	it.Seek(start)
	count := 0
	for it.Valid() && count < n {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return count
}

// Range visits every item with start <= key < end in ascending order,
// stopping early when visit returns false. It returns the number of
// items visited. A nil end means +inf.
func (s *Session) Range(start, end []byte, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.NewIterator()
	it.Seek(start)
	count := 0
	for it.Valid() && keyLT(it.Key(), end) {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return count
}

// ScanReverse visits at most n items in descending order starting at the
// largest key <= start.
func (s *Session) ScanReverse(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	defer s.opDone(obs.OpScan, s.opStart())
	it := s.NewIterator()
	it.Seek(start)
	if !it.Valid() {
		it.SeekToLast()
	} else if !bytes.Equal(it.Key(), start) {
		it.Prev()
	}
	count := 0
	for it.Valid() && count < n {
		count++
		if !visit(it.Key(), it.Value()) {
			break
		}
		it.Prev()
	}
	return count
}
