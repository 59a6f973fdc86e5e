package core

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/obs"
)

// This file implements the batched hot path: InsertBatch, DeleteBatch and
// LookupBatch amortize the per-operation fixed costs — the epoch
// Enter/Exit pair, the per-op counter flushes, and above all the
// root-to-leaf descent — across a whole batch. Keys are processed in
// sorted order so consecutive operations tend to land on the same leaf
// (or at least under the same parent), letting each operation start from
// the previous one's traversal instead of the root. Results are reported
// under the caller's original indices, so the reordering is invisible.
//
// Safety: a batch runs inside a single epoch critical section (re-entered
// every batchEpochRefresh operations so huge batches cannot stall
// reclamation), which guarantees that every node snapshot cached from an
// earlier operation in the batch is still un-recycled memory. Staleness is
// handled exactly as in the single-op path: every reuse re-loads the
// node's current chain head, checks the key against the head's
// [lowKey, highKey) range, and publishes through the same CaS; any
// mismatch falls back to a full descend from the root.

// batchEpochRefresh bounds the operations executed inside one epoch
// critical section. Exiting and re-entering invalidates the cached
// traversal (node IDs may be recycled once we leave the epoch).
const batchEpochRefresh = 4096

// batchEnt pairs a key's first 8 bytes (big-endian, zero-padded) with its
// original index, so the sort resolves most comparisons on one integer
// and only falls back to the full key on prefix ties.
type batchEnt struct {
	pfx uint64
	idx int32
}

func keyPrefix8(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// sortBatch fills s.batchOrd with the entries (prefix, 0..len(keys)-1)
// ordered by ascending key. The index tiebreak makes the order stable, so
// operations on equal keys execute in their original submission order.
// This runs once per batch on the caller's thread; sort cost directly
// taxes the amortization win, hence the prefix trick instead of a plain
// comparison sort over byte slices.
func (s *Session) sortBatch(keys [][]byte) []batchEnt {
	ord := s.batchOrd[:0]
	for i := range keys {
		ord = append(ord, batchEnt{pfx: keyPrefix8(keys[i]), idx: int32(i)})
	}
	slices.SortFunc(ord, func(a, b batchEnt) int {
		if a.pfx != b.pfx {
			if a.pfx < b.pfx {
				return -1
			}
			return 1
		}
		if c := bytes.Compare(keys[a.idx], keys[b.idx]); c != 0 {
			return c
		}
		return int(a.idx) - int(b.idx)
	})
	s.batchOrd = ord
	return ord
}

// headCovers reports whether head is an operable leaf head whose current
// range covers key — the same guards descend applies before stopping at a
// leaf.
func headCovers(head *delta, key []byte) bool {
	switch head.kind {
	case kRemove, kAbort:
		return false
	}
	if !head.isLeaf {
		return false
	}
	if head.lowKey != nil && !keyGE(key, head.lowKey) {
		return false
	}
	return head.highKey == nil || keyLT(key, head.highKey)
}

// parentCovers is headCovers for the cached inner-node snapshot.
func parentCovers(p *delta, key []byte) bool {
	switch p.kind {
	case kRemove, kAbort:
		return false
	}
	if p.lowKey != nil && !keyGE(key, p.lowKey) {
		return false
	}
	return p.highKey == nil || keyLT(key, p.highKey)
}

// batchSeekLeaf positions tr on the leaf covering key, cheapest route
// first: (1) the previous operation's leaf, if its reloaded head still
// covers key; (2) a one-level route from the previous operation's parent
// snapshot; (3) a full descend from the root. The fast paths are only
// correctness-checked against the CURRENT chain head of the candidate
// leaf, so stale cached state degrades to a descend, never to a wrong
// node.
func (s *Session) batchSeekLeaf(key []byte, tr *traversal) bool {
	if tr.id != invalidNode {
		if head := s.t.load(tr.id); head != nil && headCovers(head, key) {
			tr.head = head
			s.leafHits++
			if deepProbes {
				s.probe.NoteChain(uint32(head.depth))
			}
			return true
		}
		if p := tr.parentHead; p != nil && tr.parentID != invalidNode && parentCovers(p, key) {
			if child, ok := s.routeInner(p, key); ok {
				if chead := s.t.load(child); chead != nil && headCovers(chead, key) {
					tr.id, tr.head = child, chead
					s.parentHits++
					if deepProbes {
						s.probe.NoteChain(uint32(chead.depth))
					}
					return true
				}
			}
		}
	}
	if !s.descendProbed(key, tr) {
		tr.id, tr.parentID, tr.parentHead = invalidNode, invalidNode, nil
		return false
	}
	return true
}

// batchRefresh re-enters the epoch every batchEpochRefresh operations and
// invalidates the cached traversal, bounding how long one batch can pin
// garbage.
func (s *Session) batchRefresh(n int, tr *traversal) {
	if n > 0 && n%batchEpochRefresh == 0 {
		s.h.Exit()
		s.h.Enter()
		tr.id, tr.parentID, tr.parentHead = invalidNode, invalidNode, nil
	}
}

// opLat records one per-operation latency when histograms are enabled.
// Inside a batch this replaces opDone: op counting and counter flushes are
// amortized into batchDone. The probe OpEnd balances the OpBegin issued
// by the per-op opStart — it nests inside the batch-level begin, so it
// only decrements the nest counter (the batch-level OpEnd in batchDone
// finalizes the flight entry / sampled trace).
func (s *Session) opLat(c obs.OpClass, start int64) {
	if s.lat == nil && !(deepProbes && s.probe.RecordsOps()) {
		return
	}
	end := obs.Now()
	if s.lat != nil {
		s.lat.Record(c, end-start)
	}
	if deepProbes && s.probe.RecordsOps() {
		s.probe.OpEnd(c, start, end-start)
	}
}

// batchDone closes out one batch call: one ops-counter add for the whole
// batch, one flush of the owner-private counters, and a whole-batch
// latency observation in the batch class.
func (s *Session) batchDone(n int, start int64) {
	s.stats.ops.Add(uint64(n))
	if c := s.chases; c != 0 {
		s.chases = 0
		s.stats.pointerChases.Add(c)
	}
	if c := s.leafHits; c != 0 {
		s.leafHits = 0
		s.stats.batchLeafHits.Add(c)
	}
	if c := s.parentHits; c != 0 {
		s.parentHits = 0
		s.stats.batchParentHits.Add(c)
	}
	if s.lat == nil && !(deepProbes && s.probe.RecordsOps()) {
		return
	}
	end := obs.Now()
	if s.lat != nil {
		s.lat.Record(obs.OpBatch, end-start)
	}
	if deepProbes && s.probe.RecordsOps() {
		s.probe.OpEnd(obs.OpBatch, start, end-start)
	}
}

// resizeBools returns ok resized to n cleared entries, reusing its backing
// array when possible.
func resizeBools(ok []bool, n int) []bool {
	if cap(ok) < n {
		return make([]bool, n)
	}
	ok = ok[:n]
	for i := range ok {
		ok[i] = false
	}
	return ok
}

// InsertBatch inserts every (keys[i], vals[i]) pair, amortizing epoch
// protection and traversal across the batch, and returns per-pair results
// in ok (reused when its capacity suffices): ok[i] reports what
// Insert(keys[i], vals[i]) would have reported. Operations execute in
// sorted key order (stable for duplicates); each key is inserted exactly
// as by Insert, so a batch containing the same unique key twice inserts
// the first occurrence and fails the second.
func (s *Session) InsertBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	if len(keys) != len(vals) {
		panic("core: InsertBatch keys/vals length mismatch")
	}
	ok = resizeBools(ok, len(keys))
	if len(keys) == 0 {
		return ok
	}
	if s.t.opts.InPlaceLeafUpdates {
		// Fig. 18 debug mode is single-threaded and bypasses the delta
		// machinery; run the ops singly.
		for i, k := range keys {
			ok[i] = s.Insert(k, vals[i])
		}
		return ok
	}
	batchStart := s.opStart()
	ord := s.sortBatch(keys)
	s.h.Enter()
	tr := traversal{id: invalidNode, parentID: invalidNode}
	for n, e := range ord {
		i := int(e.idx)
		s.batchRefresh(n, &tr)
		start := s.opStart()
		ok[i] = s.insertOne(&tr, keys[i], vals[i])
		s.opLat(obs.OpInsert, start)
	}
	s.h.Exit()
	s.batchDone(len(keys), batchStart)
	return ok
}

// insertOne is the Insert loop body against a reusable traversal.
func (s *Session) insertOne(tr *traversal, key []byte, value uint64) bool {
	checkKey(key)
	spins := 0
	for {
		if !s.batchSeekLeaf(key, tr) {
			s.abortBackoff(&spins)
			continue
		}
		if s.t.opts.NonUnique {
			r := s.leafSeekPairProbed(tr.head, key, value)
			if r.found {
				return false
			}
			if s.appendLeaf(tr, kLeafInsert, key, value, 0, +1, r.baseOff) {
				return true
			}
		} else {
			r := s.leafSeekProbed(tr.head, key)
			if r.found {
				return false
			}
			if s.appendLeaf(tr, kLeafInsert, key, value, 0, +1, r.baseOff) {
				return true
			}
		}
		s.abortBackoff(&spins)
	}
}

// DeleteBatch removes every key (unique mode) or exact (keys[i], vals[i])
// pair (non-unique mode), with the same amortization, ordering, and result
// semantics as InsertBatch.
func (s *Session) DeleteBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	if len(keys) != len(vals) {
		panic("core: DeleteBatch keys/vals length mismatch")
	}
	ok = resizeBools(ok, len(keys))
	if len(keys) == 0 {
		return ok
	}
	if s.t.opts.InPlaceLeafUpdates {
		for i, k := range keys {
			ok[i] = s.Delete(k, vals[i])
		}
		return ok
	}
	batchStart := s.opStart()
	ord := s.sortBatch(keys)
	s.h.Enter()
	tr := traversal{id: invalidNode, parentID: invalidNode}
	for n, e := range ord {
		i := int(e.idx)
		s.batchRefresh(n, &tr)
		start := s.opStart()
		ok[i] = s.deleteOne(&tr, keys[i], vals[i])
		s.opLat(obs.OpDelete, start)
	}
	s.h.Exit()
	s.batchDone(len(keys), batchStart)
	return ok
}

// deleteOne is the Delete loop body against a reusable traversal.
func (s *Session) deleteOne(tr *traversal, key []byte, value uint64) bool {
	checkKey(key)
	spins := 0
	for {
		if !s.batchSeekLeaf(key, tr) {
			s.abortBackoff(&spins)
			continue
		}
		if s.t.opts.NonUnique {
			r := s.leafSeekPairProbed(tr.head, key, value)
			if !r.found {
				return false
			}
			if s.appendLeaf(tr, kLeafDelete, key, value, 0, -1, r.baseOff) {
				return true
			}
		} else {
			r := s.leafSeekProbed(tr.head, key)
			if !r.found {
				return false
			}
			if s.appendLeaf(tr, kLeafDelete, key, r.value, 0, -1, r.baseOff) {
				return true
			}
		}
		s.abortBackoff(&spins)
	}
}

// LookupBatch looks up every key and invokes visit once per key, in
// sorted key order, with i the key's original index and vals the values
// found (empty on a miss; at most one value in unique mode). vals aliases
// session scratch space and is only valid for the duration of the
// callback; visit must not call back into the session.
//
// Adjacent duplicate keys (common under skewed workloads once the batch
// is sorted) are answered from the previous result when the leaf's chain
// head is unchanged, without replaying the chain.
func (s *Session) LookupBatch(keys [][]byte, visit func(i int, vals []uint64)) {
	if len(keys) == 0 {
		return
	}
	batchStart := s.opStart()
	ord := s.sortBatch(keys)
	s.h.Enter()
	tr := traversal{id: invalidNode, parentID: invalidNode}
	var prevKey []byte
	var prevHead *delta
	var res []uint64
	for n, e := range ord {
		i := int(e.idx)
		refreshed := n > 0 && n%batchEpochRefresh == 0
		s.batchRefresh(n, &tr)
		key := keys[i]
		start := s.opStart()
		if !refreshed && prevHead != nil && bytes.Equal(key, prevKey) &&
			s.t.load(tr.id) == prevHead {
			// Same key, same chain head: the replay would retrace identical
			// records; reuse the previous result.
			s.leafHits++
			visit(i, res)
			s.opLat(obs.OpRead, start)
			continue
		}
		res = s.lookupOne(&tr, key, s.scratch[:0])
		s.scratch = res[:0]
		prevKey, prevHead = key, tr.head
		visit(i, res)
		s.opLat(obs.OpRead, start)
	}
	s.h.Exit()
	s.batchDone(len(keys), batchStart)
}

// lookupOne is the Lookup loop body against a reusable traversal,
// appending results to out.
func (s *Session) lookupOne(tr *traversal, key []byte, out []uint64) []uint64 {
	checkKey(key)
	spins := 0
	for {
		if !s.batchSeekLeaf(key, tr) {
			s.abortBackoff(&spins)
			continue
		}
		return s.lookupLeaf(tr, key, out)
	}
}
