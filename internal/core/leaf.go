package core

import (
	"bytes"
	"sync/atomic"

	"repro/internal/obs"
)

// seekResult is the outcome of a unique-key leaf chain replay.
type seekResult struct {
	found bool
	value uint64
	// baseOff is the record's base-node offset (Table 1): for an absent
	// key, where it would be inserted; for a present key found in the
	// base, its position; for a key decided by a delta record, that
	// record's offset. Negative when unknown.
	baseOff int32
	// ver is the version stamp of the delta that decided the seek. Absent
	// keys report 0 ("no state"), including keys decided by a delete
	// delta — absence has no version, so a reader validating an absent
	// key only needs the key to still be absent. A key found in a base
	// reports 0 too: its stamp can change with its value, so a reader
	// that needs it loads the pair from base (LookupVersion).
	ver uint64
	// base is the leaf base whose slot baseOff decided a found key, nil
	// when a delta decided; seq is base's sequence word, loaded before
	// the value, so an unchanged word proves the value still current.
	base *delta
	seq  uint64
}

// leafSeek replays a leaf Delta Chain for key under unique-key semantics:
// the first matching record decides (§3.1, first paragraph). While
// replaying it narrows the base binary-search window with delta offsets
// when the SearchShortcuts optimization is on (§4.4).
func (s *Session) leafSeek(head *delta, key []byte) seekResult {
	shortcuts := s.t.opts.SearchShortcuts
	lo, hi := 0, int(^uint(0)>>1) // [lo, hi] inclusive insertion-point bounds

	d := head
	for {
		switch d.kind {
		case kLeafInsert:
			c := bytes.Compare(key, d.key)
			if c == 0 {
				return seekResult{found: true, value: d.value, baseOff: d.offset, ver: d.ver}
			}
			if shortcuts && d.offset >= 0 {
				// d.key is absent from the base; d.offset is its would-be
				// insertion point.
				if c > 0 {
					lo = max(lo, int(d.offset))
				} else {
					hi = min(hi, int(d.offset))
				}
			}
		case kLeafDelete:
			c := bytes.Compare(key, d.key)
			if c == 0 {
				return seekResult{found: false, baseOff: d.offset}
			}
			if shortcuts && d.offset >= 0 {
				// A delete's offset usually names d.key's base position,
				// but when the record chain created the key the offset
				// was copied from the original insert (a would-be
				// position), so only the insert-safe bounds apply.
				if c > 0 {
					lo = max(lo, int(d.offset))
				} else {
					hi = min(hi, int(d.offset))
				}
			}
		case kLeafUpdate:
			c := bytes.Compare(key, d.key)
			if c == 0 {
				return seekResult{found: true, value: d.value, baseOff: d.offset, ver: d.ver}
			}
			if shortcuts && d.offset >= 0 {
				if c > 0 {
					lo = max(lo, int(d.offset))
				} else {
					hi = min(hi, int(d.offset))
				}
			}
		case kSplit:
			// Keys >= the split key are filtered by the high-key check
			// before the replay starts; nothing to do.
		case kMerge:
			// Offsets recorded above a merge may reference either
			// branch's base node, so the accumulated window is unreliable
			// for whichever base this replay ends at: reset it.
			lo, hi = 0, int(^uint(0)>>1)
			if keyGE(key, d.key) {
				s.chases++
				d = d.mergeContent
				continue
			}
		case kLeafBase:
			n := d.baseLen()
			l, h := 0, n
			if shortcuts {
				l, h = clampWindow(lo, hi, n)
			}
			t0 := s.phStart()
			pos, exact := d.baseSearchRange(key, l, h)
			s.phEnd(obs.PhaseBaseSearch, t0, uint64(h-l))
			if exact {
				seq := d.seq.Load()
				return seekResult{found: true, value: atomic.LoadUint64(&d.vals[pos]), baseOff: int32(pos), base: d, seq: seq}
			}
			return seekResult{found: false, baseOff: int32(pos)}
		default:
			// Inner kinds cannot appear in a leaf chain; skip the
			// unexpected record and fall through to the base search
			// conservatively. Its offset cannot be trusted, so the
			// accumulated search window is reset. A chain that never
			// reaches a base reports not-found with no offset.
			lo, hi = 0, int(^uint(0)>>1)
			if d.next == nil {
				return seekResult{found: false, baseOff: -1}
			}
		}
		s.chases++
		d = d.next
	}
}

// leafSeekProbed wraps leafSeek with a PhaseChainWalk span carrying the
// chain depth walked; the base search inside records its own nested
// PhaseBaseSearch span. Disabled cost: one nil check per call.
func (s *Session) leafSeekProbed(head *delta, key []byte) seekResult {
	t0 := s.phStart()
	r := s.leafSeek(head, key)
	s.phEnd(obs.PhaseChainWalk, t0, uint64(head.depth))
	return r
}

// leafSeekPairProbed is leafSeekProbed for the exact-pair replay.
func (s *Session) leafSeekPairProbed(head *delta, key []byte, value uint64) seekResult {
	t0 := s.phStart()
	r := s.leafSeekPair(head, key, value)
	s.phEnd(obs.PhaseChainWalk, t0, uint64(head.depth))
	return r
}

// collectValuesProbed is leafSeekProbed for the non-unique full replay.
func (s *Session) collectValuesProbed(head *delta, key []byte, out []uint64) ([]uint64, int32) {
	t0 := s.phStart()
	res, baseOff := s.collectValues(head, key, out)
	s.phEnd(obs.PhaseChainWalk, t0, uint64(head.depth))
	return res, baseOff
}

// clampWindow converts inclusive insertion-point bounds into a valid
// binary-search window over n base items.
func clampWindow(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// collectValues replays a leaf Delta Chain for key under non-unique
// semantics (§3.1): S_present accumulates values proven present,
// S_deleted values proven deleted, and the result is
// S_present ∪ (S_base − S_deleted). Values are appended to out. baseOff is
// the smallest base offset of items with the key (the paper's offset
// simplification for non-unique indexes, §4.3).
func (s *Session) collectValues(head *delta, key []byte, out []uint64) (res []uint64, baseOff int32) {
	present := s.present[:0]
	deleted := s.deleted[:0]

	d := head
	for {
		switch d.kind {
		case kLeafInsert:
			if bytes.Equal(key, d.key) && !containsVal(deleted, d.value) && !containsVal(present, d.value) {
				present = append(present, d.value)
			}
		case kLeafDelete:
			if bytes.Equal(key, d.key) && !containsVal(present, d.value) {
				deleted = append(deleted, d.value)
			}
		case kLeafUpdate:
			// An update is an insert of the new value followed by a
			// delete of the old one (§3.1).
			if bytes.Equal(key, d.key) {
				if !containsVal(deleted, d.value) && !containsVal(present, d.value) {
					present = append(present, d.value)
				}
				if !containsVal(present, d.oldValue) {
					deleted = append(deleted, d.oldValue)
				}
			}
		case kSplit:
			// Filtered by the high-key check; nothing to do.
		case kMerge:
			if keyGE(key, d.key) {
				s.chases++
				d = d.mergeContent
				continue
			}
		case kLeafBase:
			pos, _ := d.baseSearch(key)
			out = append(out, present...)
			for i, n := pos, d.baseLen(); i < n && bytes.Equal(d.baseKey(i), key); i++ {
				if v := d.vals[i]; !containsVal(deleted, v) && !containsVal(present, v) {
					out = append(out, v)
				}
			}
			s.present, s.deleted = present, deleted // return scratch space
			return out, int32(pos)
		default:
			// Skip the unexpected record and keep replaying toward the
			// base (see leafSeek); a chain with no base reports no values.
			if d.next == nil {
				s.present, s.deleted = present, deleted
				return out, -1
			}
		}
		s.chases++
		d = d.next
	}
}

// leafSeekPair replays a leaf chain for the visibility of one exact
// (key, value) pair under non-unique semantics. Unlike collectValues it
// stops at the first record that decides the pair — newer records always
// override older ones for the same pair — which gives the write paths
// (Insert/Delete/UpdateValue) the same early-exit cost profile as the
// unique-key seek. §3.1's full set computation is only needed when every
// value must be returned.
func (s *Session) leafSeekPair(head *delta, key []byte, value uint64) seekResult {
	d := head
	for {
		switch d.kind {
		case kLeafInsert:
			if d.value == value && bytes.Equal(key, d.key) {
				return seekResult{found: true, value: value, baseOff: d.offset}
			}
		case kLeafDelete:
			if d.value == value && bytes.Equal(key, d.key) {
				return seekResult{found: false, baseOff: d.offset}
			}
		case kLeafUpdate:
			if bytes.Equal(key, d.key) {
				if d.value == value {
					return seekResult{found: true, value: value, baseOff: d.offset}
				}
				if d.oldValue == value {
					return seekResult{found: false, baseOff: d.offset}
				}
			}
		case kSplit:
			// Filtered by the high-key check; nothing to do.
		case kMerge:
			if keyGE(key, d.key) {
				s.chases++
				d = d.mergeContent
				continue
			}
		case kLeafBase:
			pos, _ := d.baseSearch(key)
			for i, n := pos, d.baseLen(); i < n && bytes.Equal(d.baseKey(i), key); i++ {
				if d.vals[i] == value {
					return seekResult{found: true, value: value, baseOff: int32(pos)}
				}
			}
			return seekResult{found: false, baseOff: int32(pos)}
		default:
			// Skip the unexpected record and keep replaying toward the
			// base (see leafSeek).
			if d.next == nil {
				return seekResult{found: false, baseOff: -1}
			}
		}
		s.chases++
		d = d.next
	}
}

// leafSeekFirstVisible returns the newest visible value for key under
// non-unique semantics, stopping as soon as one value is proven present
// (an insert or update whose value no newer record deleted). Only the
// deleted set is tracked, so the common case exits within a few records.
func (s *Session) leafSeekFirstVisible(head *delta, key []byte) seekResult {
	deleted := s.deleted[:0]
	defer func() { s.deleted = deleted[:0] }()
	d := head
	for {
		switch d.kind {
		case kLeafInsert:
			if bytes.Equal(key, d.key) && !containsVal(deleted, d.value) {
				return seekResult{found: true, value: d.value, baseOff: d.offset}
			}
		case kLeafDelete:
			if bytes.Equal(key, d.key) {
				deleted = append(deleted, d.value)
			}
		case kLeafUpdate:
			if bytes.Equal(key, d.key) {
				if !containsVal(deleted, d.value) {
					return seekResult{found: true, value: d.value, baseOff: d.offset}
				}
				deleted = append(deleted, d.oldValue)
			}
		case kSplit:
			// Filtered by the high-key check; nothing to do.
		case kMerge:
			if keyGE(key, d.key) {
				s.chases++
				d = d.mergeContent
				continue
			}
		case kLeafBase:
			pos, _ := d.baseSearch(key)
			for i, n := pos, d.baseLen(); i < n && bytes.Equal(d.baseKey(i), key); i++ {
				if !containsVal(deleted, d.vals[i]) {
					return seekResult{found: true, value: d.vals[i], baseOff: int32(pos)}
				}
			}
			return seekResult{found: false, baseOff: int32(pos)}
		default:
			// Skip the unexpected record and keep replaying toward the
			// base (see leafSeek).
			if d.next == nil {
				return seekResult{found: false, baseOff: -1}
			}
		}
		s.chases++
		d = d.next
	}
}

func containsVal(vs []uint64, v uint64) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
