package core

import (
	"runtime"
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
// from the base node's pre-allocated slab when the Preallocate
// optimization is on (§4.1), otherwise a heap allocation. nil means the
// slab is exhausted and the caller must consolidate.
func (s *Session) allocDelta(head *delta) *delta {
	if sl := head.base.slab; sl != nil {
		return sl.claim()
	}
	return &delta{}
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
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		if s.t.opts.InPlaceLeafUpdates {
			ok, inserted := s.insertInPlace(&tr, key, value)
			if ok {
				return inserted
			}
			s.stats.aborts.Add(1)
			continue
		}
		if s.t.opts.NonUnique {
			r := s.leafSeekPairProbed(tr.head, key, value)
			if r.found {
				return false
			}
			if s.appendLeaf(&tr, kLeafInsert, key, value, 0, +1, r.baseOff) {
				return true
			}
		} else {
			r := s.leafSeekProbed(tr.head, key)
			if r.found {
				return false
			}
			if s.appendLeaf(&tr, kLeafInsert, key, value, 0, +1, r.baseOff) {
				return true
			}
		}
		s.abortBackoff(&spins)
	}
}

// Delete removes key (unique mode) or the exact (key, value) pair
// (non-unique mode), reporting whether anything was removed.
func (s *Session) Delete(key []byte, value uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpDelete, s.opStart())
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		if s.t.opts.InPlaceLeafUpdates {
			ok, deleted := s.deleteInPlace(&tr, key, value)
			if ok {
				return deleted
			}
			s.stats.aborts.Add(1)
			continue
		}
		if s.t.opts.NonUnique {
			r := s.leafSeekPairProbed(tr.head, key, value)
			if !r.found {
				return false
			}
			if s.appendLeaf(&tr, kLeafDelete, key, value, 0, -1, r.baseOff) {
				return true
			}
		} else {
			r := s.leafSeekProbed(tr.head, key)
			if !r.found {
				return false
			}
			if s.appendLeaf(&tr, kLeafDelete, key, r.value, 0, -1, r.baseOff) {
				return true
			}
		}
		s.abortBackoff(&spins)
	}
}

// Update replaces the value stored under key (unique mode) and reports
// whether the key was present. In non-unique mode it replaces the pair
// (key, oldValue) for the first visible value; use UpdateValue for an
// explicit pair.
func (s *Session) Update(key []byte, value uint64) bool {
	checkKey(key)
	s.h.Enter()
	defer s.h.Exit()
	defer s.opDone(obs.OpUpdate, s.opStart())
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		var old uint64
		var off int32
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
			old, off = r.value, r.baseOff
		}
		if old == value {
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
	spins := 0
	for {
		var tr traversal
		if !s.descendProbed(key, &tr) {
			s.abortBackoff(&spins)
			continue
		}
		return s.lookupLeaf(&tr, key, out)
	}
}

// lookupLeaf answers a Lookup on the leaf tr points at, appending the
// values to out.
func (s *Session) lookupLeaf(tr *traversal, key []byte, out []uint64) []uint64 {
	if s.t.opts.NonUnique {
		out, _ = s.collectValuesProbed(tr.head, key, out)
	} else if r := s.leafSeekProbed(tr.head, key); r.found {
		out = append(out, r.value)
	}
	s.readDone(tr)
	return out
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
	pos, exact := searchKeys(head.keys, key)
	if exact && !s.t.opts.NonUnique {
		return true, false
	}
	head.keys = append(head.keys, nil)
	copy(head.keys[pos+1:], head.keys[pos:])
	head.keys[pos] = cloneKey(key)
	head.vals = append(head.vals, 0)
	copy(head.vals[pos+1:], head.vals[pos:])
	head.vals[pos] = value
	head.vers = append(head.vers, 0)
	copy(head.vers[pos+1:], head.vers[pos:])
	head.vers[pos] = s.t.verCtr.Add(1)
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
	pos, exact := searchKeys(head.keys, key)
	if !exact {
		return true, false
	}
	head.keys = append(head.keys[:pos], head.keys[pos+1:]...)
	head.vals = append(head.vals[:pos], head.vals[pos+1:]...)
	if len(head.vers) > pos {
		head.vers = append(head.vers[:pos], head.vers[pos+1:]...)
	}
	head.size--
	return true, true
}
