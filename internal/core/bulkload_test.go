package core

import (
	"testing"
)

func loadSeq(t *testing.T, tr *Tree, n uint64, stride uint64) {
	t.Helper()
	i := uint64(0)
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= n {
			return nil, 0, false
		}
		k := key64(i * stride)
		v := i
		i++
		return k, v, true
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
}

func TestBulkLoadBasic(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	const n = 100000
	loadSeq(t, tr, n, 2)
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.NewSession()
	defer s.Release()
	for i := uint64(0); i < n; i += 111 {
		got := s.Lookup(key64(i*2), nil)
		if len(got) != 1 || got[0] != i {
			t.Fatalf("lookup %d: %v", i*2, got)
		}
		if got := s.Lookup(key64(i*2+1), nil); len(got) != 0 {
			t.Fatalf("phantom %d", i*2+1)
		}
	}
	if got := tr.Count(); got != n {
		t.Fatalf("count %d", got)
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	tr := New(opts)
	defer tr.Close()
	const n = 20000
	loadSeq(t, tr, n, 2)
	s := tr.NewSession()
	defer s.Release()
	// Inserts into the gaps, deletes, updates — the loaded tree must be a
	// fully functional tree, splitting as it grows.
	for i := uint64(0); i < n; i += 2 {
		if !s.Insert(key64(i*2+1), i) {
			t.Fatalf("insert %d failed", i*2+1)
		}
	}
	for i := uint64(0); i < n; i += 4 {
		if !s.Delete(key64(i*2), 0) {
			t.Fatalf("delete %d failed", i*2)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := tr.Count(); got != n+n/2-n/4 {
		t.Fatalf("count %d want %d", got, n+n/2-n/4)
	}
}

func TestBulkLoadTiny(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 5} {
		tr := New(DefaultOptions())
		loadSeq(t, tr, n, 1)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d validate: %v", n, err)
		}
		if got := tr.Count(); got != int(n) {
			t.Fatalf("n=%d count %d", n, got)
		}
		tr.Close()
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	s.Insert(key64(1), 1)
	s.Release()
	err := tr.BulkLoad(func() ([]byte, uint64, bool) { return nil, 0, false })
	if err != ErrNotEmpty {
		t.Fatalf("err %v", err)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	seq := [][]byte{key64(5), key64(3)}
	i := 0
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= len(seq) {
			return nil, 0, false
		}
		k := seq[i]
		i++
		return k, 0, true
	})
	if err == nil {
		t.Fatal("unsorted load accepted")
	}
	// Duplicates rejected in unique mode.
	tr2 := New(DefaultOptions())
	defer tr2.Close()
	i = 0
	seq = [][]byte{key64(5), key64(5)}
	if err := tr2.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= len(seq) {
			return nil, 0, false
		}
		k := seq[i]
		i++
		return k, 0, true
	}); err == nil {
		t.Fatal("duplicate load accepted in unique mode")
	}
}

func TestBulkLoadNonUniqueDuplicateRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	opts.LeafNodeSize = 8
	tr := New(opts)
	defer tr.Close()
	// Long duplicate runs crossing would-be leaf boundaries.
	type kv struct {
		k uint64
		v uint64
	}
	var items []kv
	for k := uint64(1); k <= 40; k++ {
		for v := uint64(0); v < 20; v++ {
			items = append(items, kv{k, v})
		}
	}
	i := 0
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= len(items) {
			return nil, 0, false
		}
		it := items[i]
		i++
		return key64(it.k), it.v, true
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.NewSession()
	defer s.Release()
	for k := uint64(1); k <= 40; k++ {
		got := s.Lookup(key64(k), nil)
		if len(got) != 20 {
			t.Fatalf("key %d: %d values", k, len(got))
		}
	}
}

func TestCompactShrinksMappingTable(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.LeafChainLength = 4
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	for i := uint64(0); i < n; i++ {
		if i%10 != 0 {
			s.Delete(key64(i), 0)
		}
	}
	s.Release()

	ct, err := tr.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	defer ct.Close()
	if err := ct.Validate(); err != nil {
		t.Fatalf("validate compacted: %v", err)
	}
	if got, want := ct.Count(), tr.Count(); got != want {
		t.Fatalf("compacted count %d, original %d", got, want)
	}
	cs := ct.NewSession()
	defer cs.Release()
	for i := uint64(0); i < n; i += 10 {
		got := cs.Lookup(key64(i), nil)
		if len(got) != 1 || got[0] != i {
			t.Fatalf("compacted lookup %d: %v", i, got)
		}
	}
	if before, after := tr.MappingStats().Allocated, ct.MappingStats().Allocated; after >= before {
		t.Fatalf("compaction did not shrink mapping: %d -> %d", before, after)
	}
}
