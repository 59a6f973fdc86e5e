package core

import (
	"runtime"
	"sync/atomic"
)

// This file implements in-place updates on leaf bases
// (Options.UpdateInPlace; DESIGN.md, "In-place updates").
//
// A leaf base's seq word guards its value slots. An updater claims the
// word by moving it from even to odd, stores the slot's value and a fresh
// version stamp, and releases it at even+2. Any path that copies a base's
// values (gatherLeafRecords, which every consolidation, split, merge
// subchain replay and iterator copy goes through) first seals the base:
// it sets seqSealed once no updater is inside, and a sealed word refuses
// every later claim. So a store either lands before the copy is taken
// or fails and the update falls back to a ∆update.

const (
	// seqBusy is set while an updater is writing a slot.
	seqBusy = 1
	// seqSealed is set once a copy of the base has been taken.
	seqSealed = 1 << 63
)

// seqSpin counts one round of waiting on a sequence word into the
// caller's session counter (Stats.SeqWaits) and yields the processor
// after a few rounds. The section it waits on is two stores long, so a
// wait past that means its holder was preempted inside it. A first try
// that succeeds never gets here.
func seqSpin(spins int, waits *uint64) {
	*waits++
	schedPoint(SPSeqSpin, 0, 0, nil)
	if spins > 2 {
		runtime.Gosched()
	}
}

// claimSeq takes leaf base n's sequence word for one in-place store and
// returns the word it claimed from, or false when n is sealed. Each
// retry round adds 1 to *waits, as in seal and loadPair.
func (n *baseData) claimSeq(waits *uint64) (uint64, bool) {
	for spins := 0; ; spins++ {
		w := n.seq.Load()
		if w&seqSealed != 0 {
			return 0, false
		}
		if w&seqBusy == 0 && n.seq.CompareAndSwap(w, w+1) {
			return w, true
		}
		seqSpin(spins, waits)
	}
}

// seal stops in-place stores into leaf base n, waiting out one that is
// inside. Once it returns, n's values are immutable and may be read with
// plain loads.
func (n *baseData) seal(waits *uint64) {
	schedPoint(SPSeal, 0, 0, nil)
	for spins := 0; ; spins++ {
		w := n.seq.Load()
		if w&seqSealed != 0 {
			return
		}
		if w&seqBusy == 0 && n.seq.CompareAndSwap(w, w|seqSealed) {
			return
		}
		seqSpin(spins, waits)
	}
}

// loadPair reads slot pos's value and version stamp as one pair: it
// retries until no in-place store ran while it read them.
func (n *baseData) loadPair(pos int, waits *uint64) (value, ver uint64) {
	for spins := 0; ; spins++ {
		w := n.seq.Load()
		if w&seqBusy == 0 {
			value = atomic.LoadUint64(&n.vals[pos])
			ver = atomic.LoadUint64(&n.vers[pos])
			if n.seq.Load() == w {
				return value, ver
			}
		}
		seqSpin(spins, waits)
	}
}

// updateInPlace stores value, with a fresh version stamp, into slot pos
// of leaf base b, which answered the caller's walk of node id's chain:
// no delta in the chain decided key, whether b was the head, sat below
// it, or was reached through a ∆merge's content. It reports false when
// b is sealed; the caller then posts a ∆update. A store into b after a
// delta has been prepended above the walked head is still correct: if
// no newer delta decides key, readers reach the slot through the chain;
// if one does, it shadows the store, which linearizes just before that
// delta.
func (s *Session) updateInPlace(id nodeID, b *delta, pos int, key []byte, value uint64) bool {
	ver := s.t.verCtr.Add(1)
	schedPoint(SPSeqClaim, id, 0, key)
	w, ok := b.claimSeq(&s.seqWaits)
	if !ok {
		return false
	}
	schedPoint(SPSeqStore, id, 0, key)
	atomic.StoreUint64(&b.vals[pos], value)
	atomic.StoreUint64(&b.vers[pos], ver)
	b.seq.Store(w + 2)
	s.stamp = ver
	s.inPlace++
	return true
}
