package core

import (
	"encoding/binary"
	"testing"
)

func vkey(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func TestLookupVersionBasics(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	if _, ver, found := s.LookupVersion(vkey(1)); found || ver != 0 {
		t.Fatalf("absent key: ver=%d found=%v, want 0,false", ver, found)
	}
	s.Insert(vkey(1), 10)
	_, v1, found := s.LookupVersion(vkey(1))
	if !found || v1 == 0 {
		t.Fatalf("after insert: ver=%d found=%v", v1, found)
	}
	s.Update(vkey(1), 20)
	val, v2, found := s.LookupVersion(vkey(1))
	if !found || val != 20 {
		t.Fatalf("after update: val=%d found=%v", val, found)
	}
	if v2 <= v1 {
		t.Fatalf("update version %d not above insert version %d", v2, v1)
	}
	// Stability: re-reading an untouched key returns the same stamp.
	if _, v3, _ := s.LookupVersion(vkey(1)); v3 != v2 {
		t.Fatalf("version moved without a write: %d -> %d", v2, v3)
	}
	s.Delete(vkey(1), 0)
	if _, ver, found := s.LookupVersion(vkey(1)); found || ver != 0 {
		t.Fatalf("after delete: ver=%d found=%v, want 0,false", ver, found)
	}
	// Reinsert gets a fresh, larger stamp.
	s.Insert(vkey(1), 30)
	if _, v4, _ := s.LookupVersion(vkey(1)); v4 <= v2 {
		t.Fatalf("reinsert version %d not above %d", v4, v2)
	}
}

// TestLastStamp checks that a write reports the stamp LookupVersion then
// reads for its key, through delta prepends, in-place stores into bare
// bases and the single-threaded in-place leaf mode, and that a write
// that installs nothing reports 0.
func TestLastStamp(t *testing.T) {
	inPlaceLeaves := DefaultOptions()
	inPlaceLeaves.InPlaceLeafUpdates = true
	for name, opts := range map[string]Options{"default": DefaultOptions(), "baseline": BaselineOptions(), "in-place-leaves": inPlaceLeaves} {
		t.Run(name, func(t *testing.T) {
			opts.LeafNodeSize = 16
			opts.InnerNodeSize = 16
			opts.LeafChainLength = 4
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()
			published := func(op string, k uint64) {
				t.Helper()
				_, ver, found := s.LookupVersion(vkey(k))
				if got := s.LastStamp(); !found || got == 0 || got != ver {
					t.Fatalf("%s %d: LastStamp %d, key's stamp %d (found %v)", op, k, got, ver, found)
				}
			}
			nothing := func(op string, k uint64) {
				t.Helper()
				if got := s.LastStamp(); got != 0 {
					t.Fatalf("%s %d installed nothing but LastStamp is %d", op, k, got)
				}
			}
			const n = 200
			for k := uint64(0); k < n; k++ {
				s.Insert(vkey(k), k)
				published("insert", k)
			}
			for round := uint64(1); round <= 3; round++ {
				for k := uint64(0); k < n; k++ {
					s.Update(vkey(k), k+round*n)
					published("update", k)
				}
			}
			if opts.UpdateInPlace && tr.Stats().InPlaceUpdates == 0 {
				t.Fatal("no update was stored in place")
			}
			for k := uint64(0); k < n; k++ {
				s.Insert(vkey(k), 0)
				nothing("failed insert", k)
				s.Update(vkey(k), k+3*n)
				nothing("same-value update", k)
				s.Update(vkey(k+n), 1)
				nothing("update of an absent key", k+n)
				s.Delete(vkey(k+n), 0)
				nothing("delete of an absent key", k+n)
			}
		})
	}
}

// TestLookupVersionSurvivesConsolidation drives enough writes through
// small nodes that records migrate delta -> consolidated base -> split
// children, and checks every key still reports the stamp observed right
// after its last write. A lost or reassigned stamp would make the
// transaction layer abort (or worse, validate) spuriously.
func TestLookupVersionSurvivesConsolidation(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), BaselineOptions()} {
		opts.LeafNodeSize = 16
		opts.InnerNodeSize = 16
		opts.LeafChainLength = 4
		tr := New(opts)
		s := tr.NewSession()

		const n = 4000
		want := make(map[uint64]uint64, n)
		for i := uint64(0); i < n; i++ {
			s.Insert(vkey(i), i)
			_, v, found := s.LookupVersion(vkey(i))
			if !found {
				t.Fatalf("key %d missing after insert", i)
			}
			want[i] = v
		}
		for i := uint64(0); i < n; i += 3 {
			s.Update(vkey(i), i*2)
			_, v, _ := s.LookupVersion(vkey(i))
			want[i] = v
		}
		// More inserts to force additional consolidations over the updated
		// records.
		for i := uint64(n); i < n+1000; i++ {
			s.Insert(vkey(i), i)
			_, v, _ := s.LookupVersion(vkey(i))
			want[i] = v
		}
		for i, wv := range want {
			_, v, found := s.LookupVersion(vkey(i))
			if !found {
				t.Fatalf("key %d lost", i)
			}
			if v != wv {
				t.Fatalf("key %d version drifted: got %d want %d", i, v, wv)
			}
		}
		s.Release()
		tr.Close()
	}
}

func TestLookupVersionBulkLoad(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	i := uint64(0)
	if err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= 100 {
			return nil, 0, false
		}
		k, v := vkey(i), i
		i++
		return k, v, true
	}); err != nil {
		t.Fatal(err)
	}
	s := tr.NewSession()
	defer s.Release()
	_, v0, found := s.LookupVersion(vkey(0))
	if !found || v0 == 0 {
		t.Fatalf("bulk-loaded key has ver=%d found=%v", v0, found)
	}
	for i := uint64(1); i < 100; i++ {
		if _, v, _ := s.LookupVersion(vkey(i)); v != v0 {
			t.Fatalf("bulk-loaded keys differ in stamp: %d vs %d", v, v0)
		}
	}
	// A post-load write moves past the load stamp.
	s.Update(vkey(5), 99)
	if _, v, _ := s.LookupVersion(vkey(5)); v <= v0 {
		t.Fatalf("post-load update stamp %d not above load stamp %d", v, v0)
	}
}
