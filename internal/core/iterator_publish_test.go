package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestScanPublishesLeaves loads a tree through Insert, so its leaves keep
// delta chains, and checks that one full Scan leaves no leaf chain behind
// and that forward and reverse traversals, over published bases, match a
// sorted model. InPlaceLeafUpdates keeps the private-copy path and is
// checked against the model only.
func TestScanPublishesLeaves(t *testing.T) {
	inPlace := DefaultOptions()
	inPlace.InPlaceLeafUpdates = true
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"baseline", BaselineOptions()},
		{"in-place", inPlace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.LeafNodeSize = 32
			opts.InnerNodeSize = 16
			opts.LeafMergeSize = 8
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()

			rng := rand.New(rand.NewSource(7))
			var model []uint64
			for _, i := range rng.Perm(3000) {
				k := uint64(i)*3 + 1
				if !s.Insert(key64(k), k) {
					t.Fatalf("insert %d refused", k)
				}
				model = append(model, k)
			}
			slices.Sort(model)
			publishes := !opts.InPlaceLeafUpdates
			if publishes && tr.StructureStats().AvgLeafChainLen == 0 {
				t.Fatal("Insert-loaded tree has no leaf chain; the test proves nothing")
			}

			forward := func() []uint64 {
				var got []uint64
				s.Scan(key64(0), math.MaxInt, func(k []byte, v uint64) bool {
					if ku := binary.BigEndian.Uint64(k); ku != v {
						t.Fatalf("key %d carries value %d", ku, v)
					}
					got = append(got, binary.BigEndian.Uint64(k))
					return true
				})
				return got
			}
			if got := forward(); !slices.Equal(got, model) {
				t.Fatalf("first scan: %d keys, model %d", len(got), len(model))
			}
			if publishes {
				if st := tr.StructureStats(); st.AvgLeafChainLen != 0 {
					t.Fatalf("after a full scan the mean leaf chain is %.2f, want 0", st.AvgLeafChainLen)
				}
			}
			if got := forward(); !slices.Equal(got, model) {
				t.Fatalf("second scan: %d keys, model %d", len(got), len(model))
			}

			reversed := slices.Clone(model)
			slices.Reverse(reversed)
			var got []uint64
			s.ScanReverse(key64(math.MaxUint64), math.MaxInt, func(k []byte, v uint64) bool {
				got = append(got, binary.BigEndian.Uint64(k))
				return true
			})
			if !slices.Equal(got, reversed) {
				t.Fatalf("ScanReverse: %d keys, model %d", len(got), len(reversed))
			}

			// Prev across every leaf bound, then Next back over them.
			it := s.NewIterator()
			got = got[:0]
			for it.SeekToLast(); it.Valid(); it.Prev() {
				got = append(got, binary.BigEndian.Uint64(it.Key()))
			}
			if !slices.Equal(got, reversed) {
				t.Fatalf("Prev walk: %d keys, model %d", len(got), len(reversed))
			}
			for i := 0; i < 200; i++ {
				j := rng.Intn(len(model))
				it.Seek(key64(model[j] - 1))
				for step := 0; step < 40 && it.Valid(); step++ {
					if got := binary.BigEndian.Uint64(it.Key()); got != model[j] {
						t.Fatalf("seek %d, step %d: at %d, model %d", model[j]-1, step, got, model[j])
					}
					if rng.Intn(2) == 0 && j > 0 {
						it.Prev()
						j--
					} else {
						it.Next()
						j++
					}
					if j == len(model) {
						break
					}
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanLostConsolidationServesCopy drives a scan and an insert into
// the same chained leaf under seeded CoopSched schedules. In the
// schedules where the insert's prepend lands between the scan's replay
// and its consolidation CaS, the scan's CaS fails: the scan must return
// the copy it replayed, with neither a retry nor a second replay, and the
// next scan must see the insert.
func TestScanLostConsolidationServesCopy(t *testing.T) {
	const newKey = 11
	lost := 0
	for seed := int64(1); seed <= 32; seed++ {
		tr := New(DefaultOptions())
		load := tr.NewSession()
		var before []uint64
		for k := uint64(2); k <= 20; k += 2 {
			load.Insert(key64(k), k)
			before = append(before, k)
		}
		load.Release()
		after := slices.Clone(before)
		after = slices.Insert(after, 5, newKey)

		scan := func(s *Session) []uint64 {
			var got []uint64
			s.Scan(key64(1), math.MaxInt, func(k []byte, v uint64) bool {
				got = append(got, binary.BigEndian.Uint64(k))
				return true
			})
			return got
		}
		sc, wr := tr.NewSession(), tr.NewSession()
		var got []uint64
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		cs.Go(func() { got = scan(sc) })
		cs.Go(func() { wr.Insert(key64(newKey), newKey) })
		cs.Run()
		if b := cs.Breaches(); b != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, b)
		}
		if sc.stats.casFailures.Load() > 0 {
			lost++
			if sc.stats.consolidations.Load() != 0 {
				t.Fatalf("seed %d: the scan lost its CaS and still consolidated", seed)
			}
			if !slices.Equal(got, before) {
				t.Fatalf("seed %d: the scan lost its CaS and returned %v, want its copy %v", seed, got, before)
			}
		} else if !slices.Equal(got, before) && !slices.Equal(got, after) {
			t.Fatalf("seed %d: scan returned %v", seed, got)
		}
		if next := scan(sc); !slices.Equal(next, after) {
			t.Fatalf("seed %d: next scan returned %v, want %v", seed, next, after)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sc.Release()
		wr.Release()
		tr.Close()
	}
	if lost == 0 {
		t.Fatal("no seed made the scan's consolidation CaS lose to the insert")
	}
	t.Logf("the scan's CaS lost in %d of 32 schedules", lost)
}

// TestReaderBuiltLeafSlab follows one leaf through a scan's
// consolidation: the base the scan publishes has no slab, the chain it
// retires does not feed the slab pool, writers then prepend heap deltas
// up to LeafChainLength, and the writer consolidation there gives the
// leaf a slab again.
func TestReaderBuiltLeafSlab(t *testing.T) {
	opts := DefaultOptions()
	tr := New(opts)
	s := tr.NewSession()
	leafID := tr.load(tr.root).kids[0]
	head := func() *delta { return tr.load(leafID) }

	for k := uint64(1); k <= 5; k++ {
		s.Insert(key64(k), k)
	}
	if h := head(); h.depth != 5 || h.base.slab == nil {
		t.Fatalf("loaded leaf: depth %d, slab %v; want 5 deltas on a slab", h.depth, h.base.slab != nil)
	}
	s.Scan(key64(1), math.MaxInt, func([]byte, uint64) bool { return true })
	if h := head(); h.kind != kLeafBase || h.slab != nil {
		t.Fatalf("after the scan: head %v, slab %v; want a slab-less base", h.kind, h.slab != nil)
	}

	for i := 1; i < opts.LeafChainLength; i++ {
		k := uint64(100 + i)
		s.Insert(key64(k), k)
		if h := head(); int(h.depth) != i || h.base.slab != nil {
			t.Fatalf("insert %d: depth %d, slab %v; want %d heap deltas", i, h.depth, h.base.slab != nil, i)
		}
	}
	s.Insert(key64(100+uint64(opts.LeafChainLength)), 1)
	if h := head(); h.kind != kLeafBase || h.slab == nil {
		t.Fatalf("at LeafChainLength: head %v, slab %v; want a writer-built base with a slab", h.kind, h.slab != nil)
	}
	if n := s.stats.slabFull.Load(); n != 0 {
		t.Fatalf("%d slab-exhaustion events on a slab-less leaf", n)
	}
	s.Release()
	tr.Close()
	// Close drains every epoch, so every pooled slab is back in the pool
	// by now. The writer consolidation above retired a slab-less chain,
	// and the scan's retired slab must not have been pooled.
	if tr.leafSlabs.head.Load() != nil {
		t.Fatal("the chain a scan retired returned its slab to the pool")
	}
}
