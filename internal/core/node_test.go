package core

import (
	"strings"
	"testing"
	"unsafe"
)

// TestDeltaReadCountFitsPadding pins the delta record's layout: the read
// counter sits inside the padding between offset and lowKey, so counting
// reads does not grow every delta, and on 64-bit platforms the record
// stays within 160 bytes — base payload and SMO fields live behind
// pointers (baseData, smoData), never in the record every slab slot pays
// for.
func TestDeltaReadCountFitsPadding(t *testing.T) {
	var d delta
	if end := unsafe.Offsetof(d.reads) + unsafe.Sizeof(d.reads); end > unsafe.Offsetof(d.lowKey) {
		t.Fatalf("reads ends at byte %d, past lowKey at %d", end, unsafe.Offsetof(d.lowKey))
	}
	const maxDelta = 160
	if size := unsafe.Sizeof(d); unsafe.Sizeof(uintptr(0)) == 8 && size > maxDelta {
		t.Fatalf("unsafe.Sizeof(delta{}) = %d, want <= %d", size, maxDelta)
	}
	t.Logf("unsafe.Sizeof(delta{}) = %d, baseData = %d, smoData = %d",
		unsafe.Sizeof(d), unsafe.Sizeof(baseData{}), unsafe.Sizeof(smoData{}))
}

// TestValidatePayloadOwnership hand-builds the two ways a chain element
// can own the wrong payload and requires Validate to reject each.
func TestValidatePayloadOwnership(t *testing.T) {
	build := func(t *testing.T) (*Tree, *Session) {
		opts := DefaultOptions()
		opts.LeafNodeSize = 8
		tr := New(opts)
		s := tr.NewSession()
		for i := uint64(1); i <= 64; i++ {
			s.Insert(key64(2*i), i)
		}
		tr.ConsolidateAll()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.Release()
			tr.Close()
		})
		return tr, s
	}

	t.Run("leaf insert carrying a base payload", func(t *testing.T) {
		tr, s := build(t)
		var tv traversal
		if !s.descend(key64(30), &tv) {
			t.Fatal("descend failed")
		}
		// An absent key inside the leaf's range, so the record is
		// otherwise a legal insert.
		d := &delta{kind: kLeafInsert, baseData: &baseData{}}
		d.inheritFrom(tv.head)
		d.key = append(key64(30), 0)
		d.value = 99
		d.size = tv.head.size + 1
		d.offset = -1
		if !tr.cas(tv.id, tv.head, d) {
			t.Fatal("insert CaS failed")
		}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "base payload") {
			t.Fatalf("Validate = %v, want a base-payload ownership error", err)
		}
		d.baseData = nil
		if err := tr.Validate(); err != nil {
			t.Fatalf("the same insert without the payload: %v", err)
		}
	})

	t.Run("inner insert without SMO fields", func(t *testing.T) {
		tr, _ := build(t)
		root := tr.load(tr.root)
		if root.kind != kInnerBase || len(root.kids) < 2 {
			t.Fatalf("want a consolidated root over several leaves, got %v with %d kids", root.kind, len(root.kids))
		}
		sep := &delta{kind: kInnerInsert}
		sep.inheritFrom(root)
		sep.key = root.baseKey(1)
		sep.offset = -1
		if !tr.cas(tr.root, root, sep) {
			t.Fatal("separator CaS failed")
		}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "SMO fields") {
			t.Fatalf("Validate = %v, want an SMO-fields ownership error", err)
		}
	})
}

// writeEveryLeaf posts one insert delta on every non-empty leaf: the
// leaf's first key with a zero byte appended, which sorts before the
// leaf's second key and before its right sibling's low key.
func writeEveryLeaf(tr *Tree) {
	s := tr.NewSession()
	defer s.Release()
	var firsts [][]byte
	var walk func(id nodeID)
	walk = func(id nodeID) {
		head := tr.load(id)
		c := s.collect(head)
		if !head.isLeaf {
			for _, kid := range c.kids {
				walk(kid)
			}
			return
		}
		if len(c.keys) > 0 {
			firsts = append(firsts, append(cloneKey(c.keys[0]), 0))
		}
	}
	walk(tr.root)
	for _, k := range firsts {
		s.Insert(k, 0)
	}
}

// TestLeafSlabBytes holds the pre-allocated delta area per leaf at the
// default LeafChainLength (24 slots) to at most 4 KiB — the price of a
// slot is one delta record, with no base or SMO payload in it — and
// checks the totals StructureStats reports: none on a consolidated tree
// nobody has written since, one whole slab per written leaf.
func TestLeafSlabBytes(t *testing.T) {
	opts := DefaultOptions()
	if opts.LeafChainLength != 24 || !opts.Preallocate {
		t.Fatalf("defaults changed: LeafChainLength %d, Preallocate %v", opts.LeafChainLength, opts.Preallocate)
	}
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	for i := uint64(0); i < 20000; i++ {
		s.Insert(key64(i*7919%20000), i)
	}
	tr.ConsolidateAll()
	if st := tr.StructureStats(); st.LeafSlabBytes != 0 || st.InnerSlabBytes != 0 {
		t.Fatalf("unwritten consolidated tree: slab bytes leaf %d inner %d, want 0", st.LeafSlabBytes, st.InnerSlabBytes)
	}
	writeEveryLeaf(tr)
	// Separator posts from splits at the right edge write inner bases;
	// every second post on a node consolidates it (InnerChainLength 2),
	// so stop at a post that left a slab.
	for i := uint64(20000); i < 30000 && tr.StructureStats().InnerSlabBytes == 0; i += 16 {
		for j := i; j < i+16; j++ {
			s.Insert(key64(j), j)
		}
	}
	s.Release()
	st := tr.StructureStats()
	if st.LeafNodes < 2 || st.LeafSlabBytes == 0 || st.InnerSlabBytes == 0 {
		t.Fatalf("shape %+v: want several leaves and slab bytes at both levels", st)
	}
	perLeaf := st.LeafSlabBytes / int64(st.LeafNodes)
	if perLeaf > 4096 {
		t.Fatalf("%d slab bytes per leaf, want <= 4096", perLeaf)
	}
	slot := int64(unsafe.Sizeof(delta{}))
	if st.LeafSlabBytes%(int64(opts.LeafChainLength)*slot) != 0 ||
		st.InnerSlabBytes%(int64(opts.InnerChainLength)*slot) != 0 {
		t.Fatalf("slab bytes leaf %d inner %d are not whole slabs of %d-byte slots", st.LeafSlabBytes, st.InnerSlabBytes, slot)
	}
	t.Logf("%d leaves, %d slab bytes per leaf, %d inner slab bytes", st.LeafNodes, perLeaf, st.InnerSlabBytes)

	base := New(BaselineOptions())
	defer base.Close()
	bs := base.NewSession()
	for i := uint64(0); i < 2000; i++ {
		bs.Insert(key64(i), i)
	}
	bs.Release()
	if st := base.StructureStats(); st.LeafSlabBytes != 0 || st.InnerSlabBytes != 0 {
		t.Fatalf("without Preallocate: slab bytes leaf %d inner %d, want 0", st.LeafSlabBytes, st.InnerSlabBytes)
	}
}

// TestReclaimedSlabsHoldNoRecords requires a recycled slab to pin
// nothing: after an insert load, four update rounds and one insert into
// every leaf on one session, no slab attached to a live base holds a
// record at or past its marker, no pooled slab holds a record at all,
// and StructureStats counts the pool. A slab whose slots kept their records would keep each retired
// chain, its base node and that base's own older slab reachable until a
// later claim overwrote the slot.
func TestReclaimedSlabsHoldNoRecords(t *testing.T) {
	const n = 50000
	tr := New(DefaultOptions())
	s := tr.NewSession()
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i*7919%n), i)
	}
	for round := uint64(1); round <= 4; round++ {
		for i := uint64(0); i < n; i++ {
			s.Update(key64(i*7919%n), i+round*n)
		}
	}
	s.Release()
	writeEveryLeaf(tr)
	tr.Close() // drains every epoch, so every retired slab is pooled by now

	s = tr.NewSession()
	defer s.Release()
	attached, dirty := 0, 0
	var roomy *slab // a live leaf slab with unclaimed slots
	var walk func(id nodeID)
	walk = func(id nodeID) {
		head := tr.load(id)
		if sl := head.base.slab.Load(); sl != nil {
			attached++
			if checkSlabTail(sl) != nil {
				dirty++
			}
			if head.isLeaf && sl.used() < len(sl.slots) {
				roomy = sl
			}
		}
		if !head.isLeaf {
			for _, kid := range s.collect(head).kids {
				walk(kid)
			}
		}
	}
	walk(tr.root)
	if attached == 0 || dirty != 0 {
		t.Errorf("%d of %d attached slabs hold a record past the marker; want 0 of > 0", dirty, attached)
	}

	pooled, holding := int64(0), 0
	for _, p := range []*slabPool{&tr.leafSlabs, &tr.innerSlabs} {
		for e := p.head.Load(); e != nil; e = e.next {
			pooled++
			for i := range e.s.slots {
				if e.s.slots[i].holdsRecord() {
					holding++
					break
				}
			}
		}
	}
	if pooled == 0 || holding != 0 {
		t.Errorf("%d of %d pooled slabs hold a record; want 0 of > 0", holding, pooled)
	}
	if pooled > 2*maxPooledSlabs {
		t.Errorf("%d pooled slabs, want at most %d per pool", pooled, maxPooledSlabs)
	}
	st := tr.StructureStats()
	if st.PooledSlabs != pooled || st.PooledSlabBytes <= 0 {
		t.Errorf("StructureStats reports %d pooled slabs (%d B), the pools hold %d", st.PooledSlabs, st.PooledSlabBytes, pooled)
	}
	t.Logf("%d attached slabs, %d pooled (%d B)", attached, pooled, st.PooledSlabBytes)

	// Validate enforces the attached half: plant a record past a live
	// leaf's marker.
	if roomy == nil {
		t.Fatal("no live leaf slab has an unclaimed slot")
	}
	roomy.slots[len(roomy.slots)-1].key = key64(1)
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "past the marker") {
		t.Fatalf("Validate = %v, want a record past the marker", err)
	}
}
