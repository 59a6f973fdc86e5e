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

// TestLeafSlabBytes holds the pre-allocated delta area per leaf at the
// default LeafChainLength (24 slots) to at most 4 KiB — the price of a
// slot is one delta record, with no base or SMO payload in it — and
// checks the totals StructureStats reports.
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
	s.Release()
	tr.ConsolidateAll()
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
