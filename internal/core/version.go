package core

import "repro/internal/obs"

// LookupVersion reads key and the version stamp of the record that holds
// it. Versions are drawn from a tree-global counter at publish time, so
// observing the same (found, value, ver) triple twice proves no write to
// the key was published in between — the observation primitive of the
// optimistic transaction layer. Absent keys report version 0: absence has
// no state, so re-validating an absent read only requires the key to
// still be absent.
//
// Unique-key mode only; under Options.NonUnique a key has no single
// record to version and LookupVersion panics.
func (s *Session) LookupVersion(key []byte) (value uint64, ver uint64, found bool) {
	checkKey(key)
	if s.t.opts.NonUnique {
		panic("core: LookupVersion requires unique-key mode")
	}
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
		r := s.leafSeekProbed(tr.head, key)
		if r.base != nil {
			r.value, r.ver = r.base.loadPair(int(r.baseOff), &s.seqWaits)
		}
		s.readDone(&tr)
		return r.value, r.ver, r.found
	}
}

// LastStamp reports the version stamp that the session's most recent
// write (Insert, Delete, Update, UpdateValue, or the last operation of a
// batch) published, or 0 when it installed nothing: a failed insert or
// delete, an update of an absent key or one that left the value as it
// was. A write's own stamp is what a LookupVersion of its key returns
// until the next write to that key, so a caller that excludes other
// writers of the key reads the stamp here instead of looking it up.
func (s *Session) LastStamp() uint64 { return s.stamp }
