package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestSlabMarkFitsPadding pins baseData's layout: the wantSlab mark sits
// in the padding after nil0, so marking writer-built bases does not grow
// the payload every base node carries.
func TestSlabMarkFitsPadding(t *testing.T) {
	var b baseData
	if end := unsafe.Offsetof(b.wantSlab) + unsafe.Sizeof(b.wantSlab); end > unsafe.Offsetof(b.sfx) {
		t.Fatalf("wantSlab ends at byte %d, past sfx at %d", end, unsafe.Offsetof(b.sfx))
	}
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(b); got != 168 {
			t.Fatalf("baseData is %d bytes, want 168", got)
		}
	}
}

// TestSlabUpdateOnlyLeavesHoldNone pins that update-only leaves hold no
// idle slab. It loads a tree by Insert, so every leaf is a chain on a
// slab, then runs a 50/50 lookup/update phase in which every update
// stores into a base in place. Afterwards no leaf without a delta holds
// a slab, and every leaf still chained has a fold count below
// LeafNodeSize: a chain that only serves in-place stores and reads
// folds, as one that is only read does. The slabs pooled once the epochs
// drain stay within the pool bound. A chained leaf then takes
// alternating updates and lookups: the op whose count (1 per read,
// LeafNodeSize/LeafChainLength per store) first reaches LeafNodeSize
// folds the chain into a bare slab-less base, after 22 stores and 21
// reads, where reads alone would have needed 128.
func TestSlabUpdateOnlyLeavesHoldNone(t *testing.T) {
	const n = 50000
	tr := New(DefaultOptions())
	s := tr.NewSession()
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(n) {
		s.Insert(key64(uint64(i)), uint64(i))
	}
	for round := uint64(1); round <= 2; round++ {
		for _, i := range rng.Perm(n) {
			k := key64(uint64(i))
			if rng.Intn(2) == 0 {
				s.Lookup(k, nil)
			} else {
				s.Update(k, uint64(i)+round*n)
			}
		}
	}
	s.Release()
	tr.Close() // drains every epoch, so every retired slab is pooled by now

	s = tr.NewSession()
	defer s.Release()
	leafNodeSize := tr.opts.LeafNodeSize
	bare, slabbed, chained := 0, 0, 0
	var walk func(id nodeID)
	walk = func(id nodeID) {
		head := tr.load(id)
		if !head.isLeaf {
			for _, kid := range s.collect(head).kids {
				walk(kid)
			}
			return
		}
		if head.depth == 0 {
			bare++
			if head.slab.Load() != nil {
				slabbed++
			}
			return
		}
		chained++
		if r := int(head.reads.Load()); r >= leafNodeSize {
			t.Errorf("leaf %d kept a chain of %d with a fold count of %d, want < %d", id, head.depth, r, leafNodeSize)
		}
	}
	walk(tr.root)
	st := tr.StructureStats()
	if bare == 0 || slabbed != 0 {
		t.Errorf("%d of %d leaves without a delta hold a slab; want 0 of > 0", slabbed, bare)
	}
	if bare+chained != st.LeafNodes {
		t.Errorf("walked %d bare and %d chained leaves, StructureStats counts %d", bare, chained, st.LeafNodes)
	}
	if tr.Stats().InPlaceUpdates == 0 {
		t.Error("no update stored in place; the test proves nothing")
	}
	leafPooled, innerPooled := tr.leafSlabs.n.Load(), tr.innerSlabs.n.Load()
	if leafPooled > maxPooledSlabs || innerPooled > maxPooledSlabs || st.PooledSlabs != leafPooled+innerPooled {
		t.Errorf("pooled slabs leaf %d inner %d (StructureStats %d); want at most %d per pool",
			leafPooled, innerPooled, st.PooledSlabs, maxPooledSlabs)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d leaves: %d bare, %d chained; %d pooled slabs (%d B)", st.LeafNodes, bare, chained, st.PooledSlabs, st.PooledSlabBytes)

	// One chained leaf, its keys 2..20 in the base, that only takes
	// in-place stores and reads.
	one, leafID := chainedLeaf(t)
	defer one.Close()
	os := one.NewSession()
	defer os.Release()
	model := map[uint64][]uint64{11: {11}}
	for k := uint64(2); k <= 20; k += 2 {
		model[k] = []uint64{k}
	}
	loaded := one.load(leafID)
	if loaded.base.slab.Load() == nil {
		t.Fatal("the chained leaf holds no slab; the test proves nothing")
	}
	// Updates and lookups alternate, each read following the store to its
	// key. A read counts 1 toward the fold and a store w, so the chain
	// must fold at the op whose count first reaches LeafNodeSize.
	w := max(1, leafNodeSize/one.opts.LeafChainLength)
	count, stores := 0, 0
	for i := 0; ; i++ {
		if h := one.load(leafID); h != loaded {
			t.Fatalf("after %d ops (count %d) the head is a %v, want the loaded chain", i, count, h.kind)
		}
		k := uint64(2 * ((i/2)%10 + 1))
		if i%2 == 0 {
			model[k] = []uint64{uint64(1000 + i)}
			if !os.Update(key64(k), model[k][0]) {
				t.Fatalf("op %d: update of key %d refused", i, k)
			}
			count += w
			stores++
		} else {
			if got := os.Lookup(key64(k), nil); !slices.Equal(got, model[k]) {
				t.Fatalf("op %d: key %d = %v, model %v", i, k, got, model[k])
			}
			count++
		}
		if count >= leafNodeSize {
			break
		}
	}
	h := one.load(leafID)
	if h.kind != kLeafBase {
		t.Fatalf("after %d stores and the reads between them the head is a %v at depth %d, want a base", stores, h.kind, h.depth)
	}
	if h.slab.Load() != nil || h.wantSlab {
		t.Fatalf("after %d stores: slab %v, marked %v; want an unmarked slab-less base",
			stores, h.slab.Load() != nil, h.wantSlab)
	}
	if got := one.Stats().InPlaceUpdates; got != uint64(stores) {
		t.Fatalf("InPlaceUpdates = %d, want %d", got, stores)
	}
	for k, want := range model {
		if got := os.Lookup(key64(k), nil); !slices.Equal(got, want) {
			t.Fatalf("after the fold: key %d = %v, model %v", k, got, want)
		}
	}
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
}

// bulkLeaf bulk-loads keys 10, 20, ..., 80 into one leaf, so every base
// is marked and none has a slab yet, and returns the tree and the leaf.
func bulkLeaf(t *testing.T) (*Tree, nodeID) {
	t.Helper()
	tr := New(DefaultOptions())
	i := 0
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i == 8 {
			return nil, 0, false
		}
		i++
		return key64(uint64(10 * i)), uint64(i), true
	})
	if err != nil {
		t.Fatal(err)
	}
	id := tr.load(tr.root).kids[0]
	if h := tr.load(id); !h.isLeaf || h.size != 8 || !h.wantSlab || h.slab.Load() != nil {
		t.Fatalf("bulk-loaded leaf: %d keys, marked %v, slab %v; want a marked slab-less base of 8", h.size, h.wantSlab, h.slab.Load() != nil)
	}
	return tr, id
}

// TestSlabInstallRace races two writers' first deltas on one marked,
// slab-less base under CoopSched. In every schedule both deltas land in
// the one slab that won the install; where both writers tried to
// install, the loser's never-published slab is back in the pool. The
// pool is empty at the start, since nothing has retired a slab yet.
func TestSlabInstallRace(t *testing.T) {
	raced := 0
	for seed := int64(1); seed <= 32; seed++ {
		tr, leafID := bulkLeaf(t)
		a, b := tr.NewSession(), tr.NewSession()
		cs := NewCoopSched(seed)
		cs.ChangeEvery = 1
		cs.Go(func() { a.Insert(key64(11), 11) })
		cs.Go(func() { b.Insert(key64(12), 12) })
		cs.Run()
		if br := cs.Breaches(); br != 0 {
			t.Fatalf("seed %d: %d watchdog breaches", seed, br)
		}
		head := tr.load(leafID)
		sl := head.base.slab.Load()
		if head.depth != 2 || sl == nil {
			t.Fatalf("seed %d: head depth %d, slab %v; want two deltas on a slab", seed, head.depth, sl != nil)
		}
		for d := head; d.depth > 0; d = d.next {
			if !inSlab(sl, d) {
				t.Fatalf("seed %d: %v delta at depth %d is not a slot of the installed slab", seed, d.kind, d.depth)
			}
		}
		switch pooled := tr.leafSlabs.n.Load(); pooled {
		case 1:
			raced++
			if pooled := tr.leafSlabs.head.Load().s; pooled == sl || pooled.used() != 0 {
				t.Fatalf("seed %d: the pooled slab is the installed one or has claimed slots", seed)
			}
		case 0:
		default:
			t.Fatalf("seed %d: %d pooled leaf slabs, want 0 or the loser's 1", seed, pooled)
		}
		for _, k := range []uint64{10, 11, 12, 20} {
			if got := a.Lookup(key64(k), nil); len(got) != 1 {
				t.Fatalf("seed %d: Lookup(%d) = %v", seed, k, got)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a.Release()
		b.Release()
		tr.Close()
	}
	if raced == 0 {
		t.Fatal("no seed made both writers race the install")
	}
	t.Logf("both writers raced the install in %d of 32 schedules", raced)
}

// inSlab reports whether d is one of sl's slots.
func inSlab(sl *slab, d *delta) bool {
	for i := range sl.slots {
		if &sl.slots[i] == d {
			return true
		}
	}
	return false
}

// TestSlabStaleInstall parks a writer just before it installs a slab on
// a marked bare base, and consolidates the leaf meanwhile. The stale
// writer then installs on the retired base, loses its delta CaS against
// the new head, and retries: its record lands on the new base's own
// slab, and no record is lost.
func TestSlabStaleInstall(t *testing.T) {
	tr, leafID := bulkLeaf(t)
	defer tr.Close()
	w, c := tr.NewSession(), tr.NewSession()
	defer w.Release()
	defer c.Release()
	stale := tr.load(leafID)
	injected := false
	restore := SetSchedHook(func(pi PointInfo) {
		if pi.Point != SPSlabInstall || injected {
			return
		}
		injected = true
		if tr.load(leafID) != stale {
			t.Error("the writer is not installing on the loaded base")
		}
		c.consolidateID(leafID, stale, invalidNode, nil, false)
	})
	w.Insert(key64(15), 15)
	restore()

	if !injected {
		t.Fatal("the writer never reached the slab install")
	}
	if stale.slab.Load() == nil {
		t.Fatal("the stale writer did not install on the retired base")
	}
	head := tr.load(leafID)
	if head.base == stale || head.depth != 1 || head.base.slab.Load() == nil ||
		!inSlab(head.base.slab.Load(), head) {
		t.Fatalf("head depth %d on the retired base %v; want one delta in the new base's slab", head.depth, head.base == stale)
	}
	if n := w.stats.casFailures.Load(); n == 0 {
		t.Error("the stale writer's delta CaS did not fail")
	}
	for k := uint64(10); k <= 80; k += 5 {
		want := k%10 == 0 || k == 15
		if got := w.Lookup(key64(k), nil); (len(got) == 1) != want {
			t.Errorf("Lookup(%d) = %v, want present %v", k, got, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
