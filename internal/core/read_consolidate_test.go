package core

import (
	"slices"
	"testing"
	"unsafe"
)

// pointReads are the three point-read paths that end in readDone. Each
// reads one key and returns its values sorted.
var pointReads = []struct {
	name   string
	unique bool // LookupVersion has no non-unique mode
	read   func(s *Session, k []byte) []uint64
}{
	{"Lookup", false, func(s *Session, k []byte) []uint64 {
		got := s.Lookup(k, nil)
		slices.Sort(got)
		return got
	}},
	{"LookupVersion", true, func(s *Session, k []byte) []uint64 {
		if v, _, ok := s.LookupVersion(k); ok {
			return []uint64{v}
		}
		return nil
	}},
	{"LookupBatch", false, func(s *Session, k []byte) []uint64 {
		var got []uint64
		s.LookupBatch([][]byte{k}, func(_ int, vs []uint64) { got = append(got, vs...) })
		slices.Sort(got)
		return got
	}},
}

// loadChainedLeaf inserts keys 1..5 (value 10k) into a fresh tree's only
// leaf, plus a second value for key 3 in non-unique mode, and returns the
// leaf's ID and the model. Insert leaves the chain unconsolidated.
func loadChainedLeaf(t *testing.T, tr *Tree, s *Session) (nodeID, map[uint64][]uint64) {
	t.Helper()
	model := make(map[uint64][]uint64)
	for k := uint64(1); k <= 5; k++ {
		s.Insert(key64(k), 10*k)
		model[k] = []uint64{10 * k}
	}
	if tr.opts.NonUnique {
		s.Insert(key64(3), 31)
		model[3] = []uint64{30, 31}
	}
	leafID := tr.load(tr.root).kids[0]
	if tr.load(leafID).kind == kLeafBase {
		t.Fatal("Insert-loaded leaf has no chain; the test proves nothing")
	}
	return leafID, model
}

// TestLookupConsolidatesUnwrittenLeaf reads an Insert-loaded leaf that
// nobody writes through each point-read path: LeafNodeSize-1 reads leave
// the chain in place, the next one publishes a slab-less base, and every
// answer, before and after, matches the model (key 0 is absent).
func TestLookupConsolidatesUnwrittenLeaf(t *testing.T) {
	nonUnique := DefaultOptions()
	nonUnique.NonUnique = true
	for _, oc := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"baseline", BaselineOptions()},
		{"non-unique", nonUnique},
	} {
		for _, rp := range pointReads {
			if rp.unique && oc.opts.NonUnique {
				continue
			}
			t.Run(oc.name+"/"+rp.name, func(t *testing.T) {
				tr := New(oc.opts)
				defer tr.Close()
				s := tr.NewSession()
				defer s.Release()
				leafID, model := loadChainedLeaf(t, tr, s)
				loaded := tr.load(leafID)
				check := func(i int) {
					k := uint64(i % 6)
					if got := rp.read(s, key64(k)); !slices.Equal(got, model[k]) {
						t.Fatalf("read %d: key %d = %v, model %v", i, k, got, model[k])
					}
				}

				n := tr.opts.LeafNodeSize
				for i := 0; i < n-1; i++ {
					check(i)
				}
				if h := tr.load(leafID); h != loaded {
					t.Fatalf("after %d reads the head is a %v, want the loaded chain", n-1, h.kind)
				}
				before := tr.Stats().Consolidations
				check(n - 1)
				if h := tr.load(leafID); h.kind != kLeafBase || h.slab != nil {
					t.Fatalf("after %d reads: head %v, slab %v; want a slab-less base", n, h.kind, h.slab != nil)
				}
				if got := tr.Stats().Consolidations; got != before+1 {
					t.Fatalf("read %d consolidated %d times, want 1", n, got-before)
				}
				for i := 0; i < 2*n; i++ {
					check(i)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWriteResetsReadCount writes one leaf once every LeafNodeSize-1
// reads, the read-mostly mix in which a shorter read window would
// consolidate between writes. No read may consolidate: Consolidations
// rises only when a write takes the chain to LeafChainLength. Once the
// writes stop, LeafNodeSize reads consolidate the leaf.
func TestWriteResetsReadCount(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	leafID, model := loadChainedLeaf(t, tr, s)
	n, chain := tr.opts.LeafNodeSize, tr.opts.LeafChainLength

	writerRuns := 0
	for r := 0; r < 1000; r++ {
		before := tr.Stats().Consolidations
		for i := 0; i < n-1; i++ {
			k := uint64(i%5 + 1)
			if got := pointReads[i%3].read(s, key64(k)); !slices.Equal(got, model[k]) {
				t.Fatalf("round %d, read %d: key %d = %v, model %v", r, i, k, got, model[k])
			}
		}
		if got := tr.Stats().Consolidations; got != before {
			t.Fatalf("round %d: %d reads between writes consolidated %d times", r, n-1, got-before)
		}
		want := before
		if int(tr.load(leafID).depth)+1 >= chain {
			want++
			writerRuns++
		}
		k, v := uint64(r%5+1), uint64(1000+r)
		if !s.Update(key64(k), v) {
			t.Fatalf("round %d: update of key %d refused", r, k)
		}
		model[k] = []uint64{v}
		if got := tr.Stats().Consolidations; got != want {
			t.Fatalf("round %d: the write left %d consolidations, want %d", r, got, want)
		}
	}
	if writerRuns == 0 {
		t.Fatal("no write reached LeafChainLength; the test proves nothing")
	}

	// The count the last write restarted reaches the trigger exactly
	// LeafNodeSize reads later.
	if tr.load(leafID).kind == kLeafBase {
		s.Update(key64(1), 1) // the last write consolidated; chain the leaf again
	}
	before := tr.Stats().Consolidations
	for i := 0; i < n; i++ {
		s.Lookup(key64(1), nil)
	}
	if h := tr.load(leafID); h.kind != kLeafBase || tr.Stats().Consolidations != before+1 {
		t.Fatalf("%d reads after the last write: head %v, %d consolidations; want one, to a base",
			n, h.kind, tr.Stats().Consolidations-before)
	}
}

// TestLookupLostConsolidationAnswers drives the read that reaches the
// trigger and an insert into the same leaf under seeded CoopSched
// schedules. Where the insert lands between the read's replay and its
// consolidation CaS, the CaS fails; the read must still answer correctly
// and the insert must stay visible.
func TestLookupLostConsolidationAnswers(t *testing.T) {
	const newKey, probe = 11, 8
	lost := 0
	for seed := int64(1); seed <= 32; seed++ {
		tr := New(DefaultOptions())
		load := tr.NewSession()
		var keys []uint64
		for k := uint64(2); k <= 20; k += 2 {
			load.Insert(key64(k), k)
			keys = append(keys, k)
		}
		for i := 0; i < tr.opts.LeafNodeSize-1; i++ {
			load.Lookup(key64(2), nil)
		}
		load.Release()

		rd, wr := tr.NewSession(), tr.NewSession()
		var got []uint64
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		cs.Go(func() { got = rd.Lookup(key64(probe), nil) })
		cs.Go(func() { wr.Insert(key64(newKey), newKey) })
		cs.Run()
		if b := cs.Breaches(); b != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, b)
		}
		if !slices.Equal(got, []uint64{probe}) {
			t.Fatalf("seed %d: the trigger read returned %v, want [%d]", seed, got, probe)
		}
		if rd.stats.casFailures.Load() > 0 {
			lost++
			if n := rd.stats.consolidations.Load(); n != 0 {
				t.Fatalf("seed %d: the read lost its CaS and still consolidated %d times", seed, n)
			}
		}
		for _, k := range append(keys, newKey) {
			if v := rd.Lookup(key64(k), nil); !slices.Equal(v, []uint64{k}) {
				t.Fatalf("seed %d: key %d = %v after the schedule", seed, k, v)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rd.Release()
		wr.Release()
		tr.Close()
	}
	if lost == 0 {
		t.Fatal("no seed made the read's consolidation CaS lose to the insert")
	}
	t.Logf("the read's CaS lost in %d of 32 schedules", lost)
}

// TestDeltaReadCountFitsPadding pins the read counter inside the padding
// between offset and lowKey, so counting reads does not grow every delta.
func TestDeltaReadCountFitsPadding(t *testing.T) {
	var d delta
	if end := unsafe.Offsetof(d.reads) + unsafe.Sizeof(d.reads); end > unsafe.Offsetof(d.lowKey) {
		t.Fatalf("reads ends at byte %d, past lowKey at %d", end, unsafe.Offsetof(d.lowKey))
	}
	t.Logf("unsafe.Sizeof(delta{}) = %d", unsafe.Sizeof(d))
}
