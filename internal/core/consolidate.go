package core

import (
	"bytes"
	"sort"

	"repro/internal/obs"
)

// collected is a logical node's materialized content: parallel key/value
// arrays for leaves, key/child arrays for inner nodes. Key slices are
// shared with the source records (keys are immutable by convention), so
// collection copies only headers.
type collected struct {
	keys [][]byte
	vals []uint64
	// vers carries each leaf record's preserved version stamp, parallel
	// to vals (see delta.ver).
	vers []uint64
	kids []nodeID
	leaf bool
}

// needsConsolidation reports whether the chain exceeds its configured
// length or the logical node has outgrown the maximum node size (the
// split trigger of Appendix A.1).
func (s *Session) needsConsolidation(head *delta) bool {
	limit, maxSize := s.t.opts.InnerChainLength, s.t.opts.InnerNodeSize
	if head.isLeaf {
		limit, maxSize = s.t.opts.LeafChainLength, s.t.opts.LeafNodeSize
	}
	return int(head.depth) >= limit || int(head.size) > maxSize && head.depth > 0
}

// maybeConsolidate consolidates the node when needed. Without parent
// information no merge can be initiated; the node will merge on a later
// consolidation that has it.
func (s *Session) maybeConsolidate(id nodeID, head *delta) {
	if s.needsConsolidation(head) {
		s.consolidateID(id, head, invalidNode, nil, false)
	}
}

// maybeConsolidateTr is maybeConsolidate with the traversal's parent
// snapshot, enabling the merge trigger.
func (s *Session) maybeConsolidateTr(tr *traversal, head *delta) {
	if s.needsConsolidation(head) {
		s.consolidateID(tr.id, head, tr.parentID, tr.parentHead, false)
	}
}

// readDone closes every point read (Lookup, LookupVersion, LookupBatch)
// on leaf tr.head: a read that walked a chain counts 1 on the head, and
// the count that reaches LeafNodeSize consolidates the leaf as the
// iterator does, into a base that never takes a slab. A write that posts
// a delta replaces the head and so restarts the count; a leaf that is
// only read stops paying its chain once readers have spent about one
// consolidation's worth of replays (DESIGN.md, "Read-triggered
// consolidation"). A lost CaS is ignored: the read is already answered.
// A published base becomes tr.head, so a cached traversal never reuses
// the retired chain.
func (s *Session) readDone(tr *traversal) { s.countFold(tr, 1) }

// storeDone closes an in-place store into a base under chained head
// tr.head. The store stands in for the ∆update it did not post, and
// LeafChainLength of those would have forced a writer consolidation, so
// it counts LeafNodeSize/LeafChainLength (at least 1) toward readDone's
// trigger: a chain that only serves stores folds after about
// LeafChainLength of them, and reads and stores add up in proportion.
func (s *Session) storeDone(tr *traversal) {
	s.countFold(tr, max(1, s.t.opts.LeafNodeSize/s.t.opts.LeafChainLength))
}

// countFold adds w to chained leaf head tr.head's count, and the call
// whose add takes the count to LeafNodeSize or past it consolidates the
// leaf as a reader (readDone).
func (s *Session) countFold(tr *traversal, w int) {
	head := tr.head
	if head.kind == kLeafBase || s.t.opts.InPlaceLeafUpdates {
		return
	}
	if n, l := int(head.reads.Add(uint32(w))), s.t.opts.LeafNodeSize; n < l || n-w >= l {
		return
	}
	if _, nb := s.consolidateID(tr.id, head, tr.parentID, tr.parentHead, true); nb != nil {
		tr.head = nb
	}
}

// consolidate folds tr's chain unconditionally (slab exhaustion path).
func (s *Session) consolidate(tr *traversal, head *delta) {
	s.consolidateID(tr.id, head, tr.parentID, tr.parentHead, false)
}

// consolidateID replays head's chain into a fresh base node and publishes
// it (§2.3). Oversized results split (Appendix A.1); undersized results
// trigger a merge when the parent is known (Appendix A.2). The
// PhaseConsolidate span captures consolidation work stolen by a sampled
// foreground operation (there is no background consolidator — all SMO
// work is cooperative).
//
// It returns the replayed content and, when this call published it, the
// new base: nil after a lost CaS or a split. A reader (the iterator, or a
// point read in readDone) passes reader=true: its base never takes a
// slab, and writes to it heap-allocate their deltas until the writer
// consolidation at LeafChainLength (DESIGN.md, "Slab recycling").
func (s *Session) consolidateID(id nodeID, head *delta, parentID nodeID, parentHead *delta, reader bool) (collected, *delta) {
	t0 := s.phStart()
	c, nb := s.consolidateIDInner(id, head, parentID, parentHead, reader)
	s.phEnd(obs.PhaseConsolidate, t0, uint64(head.depth))
	return c, nb
}

func (s *Session) consolidateIDInner(id nodeID, head *delta, parentID nodeID, parentHead *delta, reader bool) (collected, *delta) {
	switch head.kind {
	case kRemove, kAbort:
		return collected{}, nil
	}
	c := s.collect(head)
	maxSize := s.t.opts.InnerNodeSize
	mergeSize := s.t.opts.InnerMergeSize
	if c.leaf {
		maxSize = s.t.opts.LeafNodeSize
		mergeSize = s.t.opts.LeafMergeSize
	}
	if len(c.keys) > maxSize {
		s.split(id, head, c, parentID, parentHead)
		return c, nil
	}
	nb := s.buildBase(c, head, !reader)
	schedPoint(SPConsolidateSwap, id, 0, nil)
	if !s.t.cas(id, head, nb) {
		s.stats.casFailures.Add(1)
		return c, nil
	}
	s.stats.consolidations.Add(1)
	s.emit(obs.EvConsolidate, id, uint64(head.depth), uint64(nb.size))
	s.retireChain(head)
	if mergeSize > 0 && len(c.keys) < mergeSize &&
		id != s.t.root && nb.lowKey != nil {
		if parentID == invalidNode || parentHead == nil {
			// Inner-node consolidations (and slab-exhaustion paths) carry
			// no parent snapshot; discover one so inner nodes can merge
			// too. Failure simply defers the merge.
			if pid, phead, _, found := s.findParent(nb.lowKey, id, invalidNode); found {
				parentID, parentHead = pid, phead
			}
		}
		if parentID != invalidNode && parentHead != nil {
			s.tryMerge(parentID, parentHead, id, nb)
		}
	}
	return c, nb
}

// retireNoop is the reclamation callback for retired chains: in Go the
// memory itself is freed by the runtime once unreferenced; routing retired
// chains through the epoch GC preserves the scheme's synchronization cost
// and its counters.
func retireNoop() {}

// retireChain routes a replaced chain through the epoch GC, accounts the
// retiring slab's utilization (Table 2's IPU/LPU), and — once the epoch
// drains — returns the slab to the tree's recycling pool while that pool
// is below its bound; a slab over the bound is left to the Go GC, with no
// callback to keep it alive. A pooled slab's claimed slots are cleared
// first, so the retired records, the base they lead to and everything
// that base holds become garbage with the epoch, not when a later claim
// overwrites them.
func (s *Session) retireChain(head *delta) {
	sl := head.base.slab.Load()
	if sl == nil {
		s.h.Retire(retireNoop)
		return
	}
	used, capacity := uint64(sl.used()), uint64(len(sl.slots))
	if head.isLeaf {
		s.stats.leafSlabUsed.Add(used)
		s.stats.leafSlabCap.Add(capacity)
	} else {
		s.stats.innerSlabUsed.Add(used)
		s.stats.innerSlabCap.Add(capacity)
	}
	pool, _ := s.t.slabs(head.isLeaf)
	if pool.full() {
		s.h.Retire(retireNoop)
		return
	}
	s.h.Retire(func() {
		clear(sl.slots[:sl.used()])
		pool.put(sl)
	})
}

// buildBase materializes collected content as a fresh immutable base node
// carrying head's current attributes. With withSlab set and the
// Preallocate optimization on, the base is marked to take a slab at its
// first delta (allocDelta).
func (s *Session) buildBase(c collected, head *delta, withSlab bool) *delta {
	k := kInnerBase
	if c.leaf {
		k = kLeafBase
	}
	nb := newBaseNode(k)
	nb.size = int32(len(c.keys))
	setBaseKeys(nb, c.keys)
	// The inherited bounds may alias the retired chain's arena (collect
	// hands out zero-copy subslices); owning copies keep this node's
	// attributes from pinning its predecessor's arena.
	nb.lowKey, nb.highKey = cloneBound(head.lowKey), cloneBound(head.highKey)
	nb.rightSib = head.rightSib
	if c.leaf {
		nb.vals = c.vals
		nb.vers = c.vers
	} else {
		nb.kids = c.kids
	}
	nb.wantSlab = withSlab && s.t.opts.Preallocate
	return nb
}

// fcDiffHook, when non-nil, receives every fast-consolidation result for
// cross-checking against the baseline algorithm. Test use only.
var fcDiffHook func(head *delta, fast collected)

// collect dispatches to the leaf or inner replay, choosing the fast
// segment-based algorithm (§4.3) when enabled and applicable.
func (s *Session) collect(head *delta) collected {
	if head.isLeaf {
		if s.t.opts.FastConsolidate {
			if c, ok := s.collectLeafFast(head); ok {
				if fcDiffHook != nil {
					fcDiffHook(head, c)
				}
				return c
			}
		}
		return s.collectLeafBaseline(head)
	}
	return s.collectInner(head)
}

// effRec is one effective (not overridden) chain record.
type effRec struct {
	key    []byte
	val    uint64
	ver    uint64
	offset int32
	del    bool
}

// gatherLeafRecords walks a leaf chain new-to-old and returns the
// effective insert and delete records — the S_present/S_deleted
// computation of §3.1 applied to whole-chain replay. An update expands
// into an insert of the new value plus a delete of the old. subchains
// receives the content chains of any merge deltas encountered; base
// receives the chain's base node, sealed, so its values may be read with
// plain loads.
func (s *Session) gatherLeafRecords(head *delta, ins, del []effRec) (insOut, delOut []effRec, base *delta, subchains []*delta, hasMerge bool) {
	nonUnique := s.t.opts.NonUnique
	// decided reports whether a newer record already fixed the fate of
	// this key (unique) or pair (non-unique).
	decided := func(k []byte, v uint64) bool {
		for i := range ins {
			if bytes.Equal(ins[i].key, k) && (!nonUnique || ins[i].val == v) {
				return true
			}
		}
		for i := range del {
			if bytes.Equal(del[i].key, k) && (!nonUnique || del[i].val == v) {
				return true
			}
		}
		return false
	}
	d := head
	for {
		switch d.kind {
		case kLeafInsert:
			if smobugDropInsert(d.key) {
				break // mutation self-test bug: the record is lost (smobug_on.go)
			}
			if !decided(d.key, d.value) {
				ins = append(ins, effRec{key: d.key, val: d.value, ver: d.ver, offset: d.offset})
				// A matching base item (possible when an older delete in
				// this same chain removed the key first) must still be
				// cancelled; Rule #3 drops this entry when no base item
				// matches.
				del = append(del, effRec{key: d.key, val: d.value, offset: d.offset, del: true})
			}
		case kLeafDelete:
			if !decided(d.key, d.value) {
				del = append(del, effRec{key: d.key, val: d.value, offset: d.offset, del: true})
			}
		case kLeafUpdate:
			// Evaluate both halves against NEWER records before appending
			// either: in unique mode the insert half would otherwise mask
			// its own delete half (decisions are keyed by key only).
			insOK := !decided(d.key, d.value)
			delOK := !decided(d.key, d.oldValue)
			if insOK {
				off := d.offset
				if nonUnique {
					// The update's offset locates the OLD pair; the new
					// value's sorted position among the key's pairs can
					// differ, so the fast path cannot place the insert
					// half — force the baseline replay.
					off = -1
				}
				ins = append(ins, effRec{key: d.key, val: d.value, ver: d.ver, offset: off})
			}
			if delOK {
				del = append(del, effRec{key: d.key, val: d.oldValue, offset: d.offset, del: true})
			}
		case kSplit:
			// The chain's high-key attribute already reflects the split;
			// base filtering handles it.
		case kMerge:
			hasMerge = true
			subchains = append(subchains, d.mergeContent)
		case kLeafBase:
			// Every copy of a base's values starts here, so sealing here
			// keeps in-place updates out of every copy (inplace.go).
			d.seal(&s.seqWaits)
			return ins, del, d, subchains, hasMerge
		default:
			return ins, del, nil, subchains, hasMerge
		}
		s.chases++
		d = d.next
	}
}

// collectLeafBaseline is the paper's original consolidation: replay the
// chain, gather everything, then sort (§4.3's stated baseline).
func (s *Session) collectLeafBaseline(head *delta) collected {
	nonUnique := s.t.opts.NonUnique
	var ins, del []effRec
	var bases []*delta
	pending := []*delta{head}
	for len(pending) > 0 {
		h := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		var subs []*delta
		var base *delta
		ins, del, base, subs, _ = s.gatherLeafRecords(h, ins, del)
		if base != nil {
			bases = append(bases, base)
		}
		pending = append(pending, subs...)
	}

	c := collected{leaf: true}
	// Survivors from every base, bounded by the logical node's range.
	for _, b := range bases {
		for i, n := 0, b.baseLen(); i < n; i++ {
			k, v := b.baseKey(i), b.vals[i]
			if !keyLT(k, head.highKey) {
				continue
			}
			if survives(k, v, ins, del, nonUnique) {
				c.keys = append(c.keys, k)
				c.vals = append(c.vals, v)
				c.vers = append(c.vers, b.vers[i])
			}
		}
	}
	// Effective inserts.
	for i := range ins {
		if keyLT(ins[i].key, head.highKey) {
			c.keys = append(c.keys, ins[i].key)
			c.vals = append(c.vals, ins[i].val)
			c.vers = append(c.vers, ins[i].ver)
		}
	}
	sortLeafItems(&c)
	return c
}

// survives reports whether base item (k, v) is untouched by chain records.
func survives(k []byte, v uint64, ins, del []effRec, nonUnique bool) bool {
	if nonUnique {
		// A pair dies if deleted; an identical pair re-inserted by a
		// delta is emitted from ins instead (cannot happen through the
		// public API, which refuses duplicate pairs).
		for i := range del {
			if del[i].val == v && bytes.Equal(del[i].key, k) {
				return false
			}
		}
		for i := range ins {
			if ins[i].val == v && bytes.Equal(ins[i].key, k) {
				return false
			}
		}
		return true
	}
	// Unique: any record for the key overrides the base item.
	for i := range del {
		if bytes.Equal(del[i].key, k) {
			return false
		}
	}
	for i := range ins {
		if bytes.Equal(ins[i].key, k) {
			return false
		}
	}
	return true
}

func sortLeafItems(c *collected) {
	idx := make([]int, len(c.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := c.keys[idx[a]], c.keys[idx[b]]
		if cmp := bytes.Compare(ka, kb); cmp != 0 {
			return cmp < 0
		}
		return c.vals[idx[a]] < c.vals[idx[b]]
	})
	keys := make([][]byte, len(idx))
	vals := make([]uint64, len(idx))
	vers := make([]uint64, len(idx))
	for i, j := range idx {
		keys[i], vals[i], vers[i] = c.keys[j], c.vals[j], c.vers[j]
	}
	c.keys, c.vals, c.vers = keys, vals, vers
}

// collectLeafFast is the fast consolidation algorithm of §4.3: delta
// offsets divide the old base node into segments that are already sorted,
// so only the (few) effective inserts need sorting before a two-way merge.
// It bails out (ok=false) when a merge delta is present or any record
// lacks an offset; the caller falls back to the baseline.
func (s *Session) collectLeafFast(head *delta) (collected, bool) {
	ins, del, base, _, hasMerge := s.gatherLeafRecords(head, s.insScratch[:0], s.delScratch[:0])
	s.insScratch, s.delScratch = ins[:0], del[:0]
	if hasMerge || base == nil {
		return collected{}, false
	}
	for i := range ins {
		if ins[i].offset < 0 {
			return collected{}, false
		}
	}
	for i := range del {
		if del[i].offset < 0 {
			return collected{}, false
		}
	}
	// Sort the effective records by (offset, key, value): cheap because
	// chains are short.
	sortRecs := func(rs []effRec) {
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].offset != rs[b].offset {
				return rs[a].offset < rs[b].offset
			}
			if cmp := bytes.Compare(rs[a].key, rs[b].key); cmp != 0 {
				return cmp < 0
			}
			return rs[a].val < rs[b].val
		})
	}
	sortRecs(ins)
	sortRecs(del)

	// The base contributes items below the logical node's high key only.
	baseEnd := base.baseLen()
	if head.highKey != nil {
		baseEnd, _ = base.baseSearch(head.highKey)
	}

	c := collected{leaf: true}
	c.keys = make([][]byte, 0, baseEnd+len(ins))
	c.vals = make([]uint64, 0, baseEnd+len(ins))
	c.vers = make([]uint64, 0, baseEnd+len(ins))
	ii, di := 0, 0
	consumed := make([]bool, len(del))
	for j := 0; j < baseEnd; j++ {
		// Rule #1: inserts whose offset is j land before base[j].
		for ii < len(ins) && int(ins[ii].offset) <= j {
			if keyLT(ins[ii].key, head.highKey) {
				c.keys = append(c.keys, ins[ii].key)
				c.vals = append(c.vals, ins[ii].val)
				c.vers = append(c.vers, ins[ii].ver)
			}
			ii++
		}
		// Rule #2/#3: a delete whose offset points at (or before, for the
		// non-unique smallest-offset simplification) position j and whose
		// key/value match removes base[j]; deletes that never match any
		// base item are ignored.
		for di < len(del) && int(del[di].offset) < j && consumed[di] {
			di++
		}
		bk := base.baseKey(j)
		dead := false
		for x := di; x < len(del) && int(del[x].offset) <= j; x++ {
			if consumed[x] {
				continue
			}
			if bytes.Equal(del[x].key, bk) &&
				(!s.t.opts.NonUnique || del[x].val == base.vals[j]) {
				consumed[x] = true
				dead = true
				break
			}
		}
		if !dead {
			c.keys = append(c.keys, bk)
			c.vals = append(c.vals, base.vals[j])
			c.vers = append(c.vers, base.vers[j])
		}
	}
	for ; ii < len(ins); ii++ {
		if keyLT(ins[ii].key, head.highKey) {
			c.keys = append(c.keys, ins[ii].key)
			c.vals = append(c.vals, ins[ii].val)
			c.vers = append(c.vers, ins[ii].ver)
		}
	}
	return c, true
}

// innerDecision records the newest chain verdict for a separator key.
type innerDecision struct {
	key   []byte
	child nodeID
	del   bool
}

// collectInner replays an inner chain. Inner chains are short (the paper
// recommends length 2), so the replay-and-sort path is always used.
func (s *Session) collectInner(head *delta) collected {
	var decisions []innerDecision
	decided := func(k []byte) bool {
		for i := range decisions {
			if bytes.Equal(decisions[i].key, k) {
				return true
			}
		}
		return false
	}
	var bases []*delta
	pending := []*delta{head}
	for len(pending) > 0 {
		d := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for {
			stop := false
			switch d.kind {
			case kInnerInsert:
				if !decided(d.key) {
					decisions = append(decisions, innerDecision{key: d.key, child: d.child})
				}
			case kInnerDelete:
				if !decided(d.key) {
					decisions = append(decisions, innerDecision{key: d.key, del: true})
				}
			case kSplit:
				// high-key filtering below handles it
			case kMerge:
				pending = append(pending, d.mergeContent)
			case kInnerBase:
				bases = append(bases, d)
				stop = true
			default:
				stop = true
			}
			if stop {
				break
			}
			s.chases++
			d = d.next
		}
	}

	c := collected{}
	for _, b := range bases {
		for i, n := 0, b.baseLen(); i < n; i++ {
			k := b.baseKey(i)
			if k != nil && !keyLT(k, head.highKey) {
				continue
			}
			if !decided(k) {
				c.keys = append(c.keys, k)
				c.kids = append(c.kids, b.kids[i])
			}
		}
	}
	for i := range decisions {
		d := decisions[i]
		if !d.del && keyLT(d.key, head.highKey) {
			c.keys = append(c.keys, d.key)
			c.kids = append(c.kids, d.child)
		}
	}
	sortInnerItems(&c)
	return c
}

func sortInnerItems(c *collected) {
	idx := make([]int, len(c.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := c.keys[idx[a]], c.keys[idx[b]]
		// nil is the -inf separator and sorts first.
		if ka == nil {
			return kb != nil
		}
		if kb == nil {
			return false
		}
		return bytes.Compare(ka, kb) < 0
	})
	keys := make([][]byte, len(idx))
	kids := make([]nodeID, len(idx))
	for i, j := range idx {
		keys[i], kids[i] = c.keys[j], c.kids[j]
	}
	c.keys, c.kids = keys, kids
}
