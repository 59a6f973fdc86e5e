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
			r.value, r.ver = r.base.loadPair(int(r.baseOff))
		}
		s.readDone(&tr)
		return r.value, r.ver, r.found
	}
}

// VersionCounter reports the tree-global version counter's current value:
// every stamp issued so far is <= it. Diagnostics only.
func (t *Tree) VersionCounter() uint64 { return t.verCtr.Load() }
