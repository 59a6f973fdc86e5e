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
// the previous one's traversal instead of the root. Each operation runs
// the same body as its single-op twin (insertOne, deleteOne, lookupOne);
// only the traversal it starts from differs. Results are reported under
// the caller's original indices, so the reordering is invisible.
//
// Safety: a batch runs inside a single epoch critical section (re-entered
// every batchEpochRefresh operations so huge batches cannot stall
// reclamation), which guarantees that every node snapshot cached from an
// earlier operation in the batch is still un-recycled memory. seekLeaf
// re-loads the cached node's current chain head and checks the key
// against its [lowKey, highKey) range, and the write publishes through
// the same CaS as a single op; any mismatch or failed step restarts from
// the root.

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
//
// sortBatch also rejects empty keys. Every batch entry point calls it
// before entering the epoch, so the panic, like a single op's, leaves the
// session outside it.
func (s *Session) sortBatch(keys [][]byte) []batchEnt {
	ord := s.batchOrd[:0]
	for i := range keys {
		checkKey(keys[i])
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
	return s.writeBatch(keys, vals, ok, obs.OpInsert)
}

// DeleteBatch removes every key (unique mode) or exact (keys[i], vals[i])
// pair (non-unique mode), with the same amortization, ordering, and result
// semantics as InsertBatch.
func (s *Session) DeleteBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	if len(keys) != len(vals) {
		panic("core: DeleteBatch keys/vals length mismatch")
	}
	return s.writeBatch(keys, vals, ok, obs.OpDelete)
}

// writeBatch runs insertOne (deleteOne for c == OpDelete) over every pair
// in sorted key order, carrying the traversal from each operation to the
// next.
func (s *Session) writeBatch(keys [][]byte, vals []uint64, ok []bool, c obs.OpClass) []bool {
	ok = resizeBools(ok, len(keys))
	if len(keys) == 0 {
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
		if c == obs.OpDelete {
			ok[i] = s.deleteOne(&tr, keys[i], vals[i])
		} else {
			ok[i] = s.insertOne(&tr, keys[i], vals[i])
		}
		s.opLat(c, start)
	}
	s.h.Exit()
	s.opsDone(len(keys), obs.OpBatch, batchStart)
	return ok
}

// LookupBatch looks up every key and invokes visit once per key, in
// sorted key order, with i the key's original index and vals the values
// found (empty on a miss; at most one value in unique mode). vals aliases
// session scratch space and is only valid for the duration of the
// callback; visit must not call back into the session.
//
// Adjacent duplicate keys (common under skewed workloads once the batch
// is sorted) are answered from the previous result when the leaf's chain
// head is unchanged and so is the sequence word of the base that
// answered, without replaying the chain: an in-place update changes a
// base's value but not the head.
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
	var prev seekResult
	var res []uint64
	for n, e := range ord {
		i := int(e.idx)
		refreshed := n > 0 && n%batchEpochRefresh == 0
		s.batchRefresh(n, &tr)
		key := keys[i]
		start := s.opStart()
		if !refreshed && prevHead != nil && bytes.Equal(key, prevKey) &&
			s.t.load(tr.id) == prevHead && (prev.base == nil || prev.base.seq.Load() == prev.seq) {
			// Same key, same chain head, no in-place update since: the
			// replay would retrace identical records; reuse the previous
			// result.
			s.leafHits++
			visit(i, res)
			s.opLat(obs.OpRead, start)
			continue
		}
		res, prev = s.lookupOne(&tr, key, s.scratch[:0])
		s.scratch = res[:0]
		prevKey, prevHead = key, tr.head
		visit(i, res)
		s.opLat(obs.OpRead, start)
	}
	s.h.Exit()
	s.opsDone(len(keys), obs.OpBatch, batchStart)
}
