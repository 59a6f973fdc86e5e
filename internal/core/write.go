package core

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
)

// abortBackoff records a traversal abort and, after a couple of
// consecutive failures, yields the processor: the restart is usually
// waiting on another goroutine's unfinished SMO (e.g. a ∆abort-locked
// parent), and on hosts with few cores a tight restart loop can starve
// the very goroutine it is waiting for. Past a few hundred consecutive
// restarts the op is in a genuine storm — escalate from yielding to
// short sleeps so SMO owners get real CPU time even on GOMAXPROCS=1,
// and leave one flight-recorder note so a structural wedge produces an
// autopsy (via /debug/flightrec) instead of a silent spin.
func (s *Session) abortBackoff(spins *int) {
	s.stats.aborts.Add(1)
	s.emit(obs.EvAbort, 0, 0, 0)
	if deepProbes {
		s.probe.NoteAbort()
	}
	schedPoint(SPBackoff, 0, 0, nil)
	*spins++
	if *spins > 2 {
		runtime.Gosched()
	}
	if *spins > 256 {
		if *spins == 1024 {
			s.t.AnomalyNote("abortBackoff: operation restarted 1024 times without progress")
		}
		time.Sleep(time.Duration(min(*spins-256, 100)) * time.Microsecond)
	}
}

// descendProbed is descend plus the deep-path probes: a PhaseDescend span
// when this op is phase-sampled, and the observed chain depth of the leaf
// it lands on (feeds the flight recorder and the chain-depth
// distribution). Disabled cost over plain descend: two predictable
// branches.
func (s *Session) descendProbed(key []byte, tr *traversal) bool {
	t0 := s.phStart()
	ok := s.descend(key, tr)
	s.phEnd(obs.PhaseDescend, t0, 0)
	if deepProbes && ok {
		s.probe.NoteChain(uint32(tr.head.depth))
	}
	return ok
}

// cloneKey copies k so the tree never retains caller-owned memory.
func cloneKey(k []byte) []byte { return append([]byte(nil), k...) }

// checkKey panics on empty keys: the empty byte string is reserved as the
// internal -inf sentinel.
func checkKey(k []byte) {
	if len(k) == 0 {
		panic("core: keys must be non-empty")
	}
}

// allocDelta returns a delta record for appending to head's chain: a slot
// from the base node's pre-allocated slab (§4.1) when it has one or is
// marked to take one, otherwise a heap allocation. nil means the slab is
// exhausted and the caller must consolidate.
func (s *Session) allocDelta(head *delta) *delta {
	b := head.base
	if sl := b.slab.Load(); sl != nil {
		return sl.claim()
	}
	if !b.wantSlab {
		return &delta{}
	}
	return s.installSlab(b).claim()
}

// installSlab gives the marked base b its slab at its first delta: a
// pool slab published with a CaS, so every writer racing the install
// claims from the one slab that won. The loser's slab was never
// published and goes straight back to the pool. A stale writer may
// install on a base a consolidation has just retired; its delta CaS then
// fails against the new head, and the slab goes to the Go GC with the
// base.
func (s *Session) installSlab(b *delta) *slab {
	pool, n := s.t.slabs(b.isLeaf)
	sl := pool.get(n)
	schedPoint(SPSlabInstall, 0, 0, nil)
	if b.slab.CompareAndSwap(nil, sl) {
		return sl
	}
	pool.put(sl)
	return b.slab.Load()
}

// appendLeaf builds and publishes one leaf delta record. It returns false
// when the operation must restart (lost CaS or exhausted slab).
func (s *Session) appendLeaf(tr *traversal, k kind, key []byte, value, oldValue uint64, sizeDelta, off int32) bool {
	head := tr.head
	d := s.allocDelta(head)
	if d == nil {
		// Slab exhaustion triggers a consolidation (§4.1) and a restart.
		s.stats.slabFull.Add(1)
		s.consolidate(tr, head)
		return false
	}
	d.inheritFrom(head)
	d.kind = k
	d.key = cloneKey(key)
	d.value = value
	d.oldValue = oldValue
	d.size = head.size + sizeDelta
	d.offset = off
	// Stamp before publication: once the CaS lands, any reader of this
	// record observes a version no earlier state of the key ever carried.
	// A failed CaS wastes the stamp, which is harmless (stamps need only
	// be fresh, not dense).
	d.ver = s.t.verCtr.Add(1)
	schedPoint(SPLeafPrepend, tr.id, 0, key)
	// Boundary invariant (DESIGN.md "The delta-prepend boundary
	// invariant"): the CaS below validates against the exact head the
	// descent range-checked, and any SMO that moves this node's
	// [lowKey, highKey) must first publish a new head — so a successful
	// prepend is always in range and no re-check is needed between
	// locating the leaf and the CaS. This assertion pins the invariant
	// (and catches any future caller handing in an unvalidated head).
	if head.lowKey != nil && !keyGE(key, head.lowKey) ||
		head.highKey != nil && keyGE(key, head.highKey) {
		s.stats.aborts.Add(1)
		return false
	}
	t0 := s.phStart()
	if !s.t.cas(tr.id, head, d) {
		s.phEnd(obs.PhaseCAS, t0, 1)
		s.stats.casFailures.Add(1)
		if deepProbes {
			s.probe.NoteCASFail()
		}
		return false
	}
	s.phEnd(obs.PhaseCAS, t0, 0)
	s.stamp = d.ver
	s.maybeConsolidateTr(tr, d)
	return true
}

// Insert adds (key, value) to the tree. Under unique-key semantics it
// returns false if the key is already present; under non-unique semantics
// (Options.NonUnique) it returns false only if the exact pair is present.
func (s *Session) Insert(key []byte, value uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpInsert, s.opStart())
	tr := traversal{id: invalidNode, parentID: invalidNode}
	return s.insertOne(&tr, key, value)
}

// Delete removes key (unique mode) or the exact (key, value) pair
// (non-unique mode), reporting whether anything was removed.
func (s *Session) Delete(key []byte, value uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpDelete, s.opStart())
	tr := traversal{id: invalidNode, parentID: invalidNode}
	return s.deleteOne(&tr, key, value)
}

// insertOne is the one Insert body, shared by Insert and InsertBatch: it
// starts from whatever tr caches (nothing, for a single op) and, after a
// failed leaf step, restarts from the root (§2.2).
func (s *Session) insertOne(tr *traversal, key []byte, value uint64) bool {
	s.stamp = 0
	spins := 0
	for {
		if s.seekLeaf(key, tr) {
			if done, inserted := s.insertLeaf(tr, key, value); done {
				return inserted
			}
			tr.id = invalidNode
		}
		s.abortBackoff(&spins)
	}
}

// deleteOne is insertOne for Delete and DeleteBatch.
func (s *Session) deleteOne(tr *traversal, key []byte, value uint64) bool {
	s.stamp = 0
	spins := 0
	for {
		if s.seekLeaf(key, tr) {
			if done, deleted := s.deleteLeaf(tr, key, value); done {
				return deleted
			}
			tr.id = invalidNode
		}
		s.abortBackoff(&spins)
	}
}

// seekWrite replays the leaf chain for the record an Insert or Delete of
// (key, value) decides on: the exact pair under non-unique semantics, the
// key otherwise.
func (s *Session) seekWrite(head *delta, key []byte, value uint64) seekResult {
	if s.t.opts.NonUnique {
		return s.leafSeekPairProbed(head, key, value)
	}
	return s.leafSeekProbed(head, key)
}

// insertLeaf runs one Insert step on the leaf tr points at. done is false
// when the step lost its CaS or had to consolidate first, and the
// operation must restart.
func (s *Session) insertLeaf(tr *traversal, key []byte, value uint64) (done, inserted bool) {
	if s.t.opts.InPlaceLeafUpdates {
		return s.insertInPlace(tr, key, value)
	}
	r := s.seekWrite(tr.head, key, value)
	if r.found {
		return true, false
	}
	ok := s.appendLeaf(tr, kLeafInsert, key, value, 0, +1, r.baseOff)
	return ok, ok
}

// deleteLeaf is insertLeaf for Delete. The delta carries the value found,
// which under non-unique semantics is value itself.
func (s *Session) deleteLeaf(tr *traversal, key []byte, value uint64) (done, deleted bool) {
	if s.t.opts.InPlaceLeafUpdates {
		return s.deleteInPlace(tr, key, value)
	}
	r := s.seekWrite(tr.head, key, value)
	if !r.found {
		return true, false
	}
	ok := s.appendLeaf(tr, kLeafDelete, key, r.value, 0, -1, r.baseOff)
	return ok, ok
}

// Update replaces the value stored under key (unique mode) and reports
// whether the key was present. In non-unique mode it replaces the pair
// (key, oldValue) for the first visible value; use UpdateValue for an
// explicit pair. With Options.UpdateInPlace, a unique-mode update of a
// key that the leaf's base decides, with no delta above it deciding the
// key, stores into that base (updateInPlace).
func (s *Session) Update(key []byte, value uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpUpdate, s.opStart())
	s.stamp = 0
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		var old uint64
		var off int32
		var base *delta // the base that holds key when no delta decided it
		if s.t.opts.NonUnique {
			r := s.leafSeekFirstVisible(tr.head, key)
			if !r.found {
				return false
			}
			old, off = r.value, r.baseOff
			if old != value {
				if nr := s.leafSeekPairProbed(tr.head, key, value); nr.found {
					// The replacement pair already exists: an update delta
					// would create a duplicate, so reduce to a delete of
					// the old pair.
					if s.appendLeaf(&tr, kLeafDelete, key, old, 0, -1, off) {
						return true
					}
					s.abortBackoff(&spins)
					continue
				}
			}
		} else {
			r := s.leafSeekProbed(tr.head, key)
			if !r.found {
				return false
			}
			old, off, base = r.value, r.baseOff, r.base
		}
		if old == value {
			return true
		}
		if base != nil && s.t.opts.UpdateInPlace &&
			s.updateInPlace(tr.id, base, int(off), key, value) {
			s.storeDone(&tr)
			return true
		}
		if s.appendLeaf(&tr, kLeafUpdate, key, value, old, 0, off) {
			return true
		}
		s.abortBackoff(&spins)
	}
}

// UpdateValue replaces the exact pair (key, oldValue) with (key, newValue)
// under non-unique semantics, reporting whether the old pair was visible.
func (s *Session) UpdateValue(key []byte, oldValue, newValue uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpUpdate, s.opStart())
	s.stamp = 0
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		r := s.leafSeekPairProbed(tr.head, key, oldValue)
		if !r.found {
			return false
		}
		if oldValue == newValue {
			return true
		}
		if nr := s.leafSeekPairProbed(tr.head, key, newValue); nr.found {
			// The target pair already exists: reduce to a delete of the
			// old pair.
			if s.appendLeaf(&tr, kLeafDelete, key, oldValue, 0, -1, r.baseOff) {
				return true
			}
		} else if s.appendLeaf(&tr, kLeafUpdate, key, newValue, oldValue, 0, r.baseOff) {
			return true
		}
		s.abortBackoff(&spins)
	}
}

// Lookup appends every value stored under key to out and returns the
// extended slice. Unique mode appends at most one value.
func (s *Session) Lookup(key []byte, out []uint64) []uint64 {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpRead, s.opStart())
	tr := traversal{id: invalidNode, parentID: invalidNode}
	out, _ = s.lookupOne(&tr, key, out)
	return out
}

// lookupOne is the one Lookup body, shared by Lookup and LookupBatch,
// appending results to out. In unique mode it also returns the seek that
// answered, whose base and seq tell LookupBatch whether an in-place
// update may have changed the answer since.
func (s *Session) lookupOne(tr *traversal, key []byte, out []uint64) ([]uint64, seekResult) {
	spins := 0
	for !s.seekLeaf(key, tr) {
		s.abortBackoff(&spins)
	}
	var r seekResult
	if s.t.opts.NonUnique {
		out, _ = s.collectValuesProbed(tr.head, key, out)
	} else if r = s.leafSeekProbed(tr.head, key); r.found {
		out = append(out, r.value)
	}
	s.readDone(tr)
	return out, r
}

// insertInPlace mutates the leaf base node directly — the Fig. 18
// "disable delta updates" decomposition. Single-threaded use only.
func (s *Session) insertInPlace(tr *traversal, key []byte, value uint64) (ok, inserted bool) {
	head := tr.head
	if head.kind != kLeafBase {
		// A split delta may briefly top the chain; consolidate and retry.
		s.consolidate(tr, head)
		return false, false
	}
	pos, exact := head.baseSearch(key)
	if exact && !s.t.opts.NonUnique {
		return true, false
	}
	// The arena is shifted in place. Under this mode every iterator step
	// reads a private copy (useLeaf) and point reads return values only,
	// so no reader holds a slice of it. The shared prefix can only shrink.
	p := len(key)
	if head.baseLen() > 0 {
		p = commonPrefix(key, head.baseKey(0))
	}
	head.pfx = min(head.pfx, uint32(p))
	off := head.offs[pos]
	head.arena = slices.Insert(head.arena, int(off), key...)
	head.offs = slices.Insert(head.offs, pos, off)
	for i := pos + 1; i < len(head.offs); i++ {
		head.offs[i] += uint32(len(key))
	}
	head.vals = slices.Insert(head.vals, pos, value)
	s.stamp = s.t.verCtr.Add(1)
	head.vers = slices.Insert(head.vers, pos, s.stamp)
	head.size++
	if int(head.size) > s.t.opts.LeafNodeSize {
		s.consolidate(tr, head)
	}
	return true, true
}

// deleteInPlace is the removal counterpart of insertInPlace.
func (s *Session) deleteInPlace(tr *traversal, key []byte, value uint64) (ok, deleted bool) {
	head := tr.head
	if head.kind != kLeafBase {
		s.consolidate(tr, head)
		return false, false
	}
	pos, exact := head.baseSearch(key)
	if !exact {
		return true, false
	}
	// Shifted in place as in insertInPlace; the old pfx stays a prefix of
	// every remaining key.
	start, end := head.offs[pos], head.offs[pos+1]
	head.arena = slices.Delete(head.arena, int(start), int(end))
	head.offs = slices.Delete(head.offs, pos, pos+1)
	for i := pos; i < len(head.offs); i++ {
		head.offs[i] -= end - start
	}
	head.vals = slices.Delete(head.vals, pos, pos+1)
	head.vers = slices.Delete(head.vers, pos, pos+1)
	head.size--
	return true, true
}
