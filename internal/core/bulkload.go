package core

import (
	"bytes"
	"errors"
	"fmt"
)

// bulkFill leaves nodes this fraction full so post-load inserts do not
// split immediately.
const bulkFillNum, bulkFillDen = 3, 4

// ErrNotEmpty is returned by BulkLoad on a tree that already has content.
var ErrNotEmpty = errors.New("core: BulkLoad requires an empty tree")

// BulkLoad populates an empty, quiescent tree from a sorted stream of
// pairs, building base nodes bottom-up without any delta records or CaS
// traffic. next must yield keys in strictly ascending order (ascending
// with duplicates when Options.NonUnique is set) and report ok=false at
// the end. The tree must not be accessed concurrently during the load.
//
// Loading n pairs costs O(n) with no tree traversals, against
// O(n log n) traversals plus consolidation work for one-by-one inserts —
// the standard way to build a 52M-key index for an experiment.
func (t *Tree) BulkLoad(next func() (key []byte, value uint64, ok bool)) error {
	head := t.load(t.root)
	if head.kind != kInnerBase || head.size != 1 {
		return ErrNotEmpty
	}
	oldLeafID := head.kids[0]
	if leaf := t.load(oldLeafID); leaf.kind != kLeafBase || leaf.size != 0 {
		return ErrNotEmpty
	}

	leafCap := t.opts.LeafNodeSize * bulkFillNum / bulkFillDen
	if leafCap < 2 {
		leafCap = 2
	}

	// Build the leaf level.
	type sep struct {
		key []byte // nil = -inf
		id  nodeID
	}
	var seps []sep
	var prevLeaf *delta
	var prevKey []byte
	first := true

	// All bulk-loaded records share one version stamp: each key has only
	// this single state, so freshness per publish is preserved.
	loadVer := t.verCtr.Add(1)
	flushLeaf := func(keys [][]byte, vals []uint64) {
		vers := make([]uint64, len(vals))
		for i := range vers {
			vers[i] = loadVer
		}
		nb := newBaseNode(kLeafBase)
		nb.size = int32(len(keys))
		nb.vals, nb.vers = vals, vers
		setBaseKeys(nb, keys)
		nb.wantSlab = t.opts.Preallocate
		id := t.mt.Allocate()
		if len(seps) == 0 {
			nb.lowKey = nil
		} else {
			nb.lowKey = keys[0]
		}
		t.mt.Store(id, nb)
		if prevLeaf != nil {
			prevLeaf.highKey = nb.lowKey
			prevLeaf.rightSib = id
		}
		prevLeaf = nb
		seps = append(seps, sep{key: nb.lowKey, id: id})
	}

	keys := make([][]byte, 0, leafCap)
	vals := make([]uint64, 0, leafCap)
	for {
		k, v, ok := next()
		if !ok {
			break
		}
		checkKey(k)
		if !first {
			cmp := bytes.Compare(prevKey, k)
			if cmp > 0 || cmp == 0 && !t.opts.NonUnique {
				return fmt.Errorf("core: BulkLoad keys out of order at %q", k)
			}
		}
		first = false
		// Flush before starting a new key so duplicate runs never
		// straddle a leaf boundary (their shared key must not become a
		// right node's low key).
		if len(keys) >= leafCap && !bytes.Equal(prevKey, k) {
			flushLeaf(keys, vals)
			keys = make([][]byte, 0, leafCap)
			vals = make([]uint64, 0, leafCap)
		}
		prevKey = cloneKey(k)
		keys = append(keys, prevKey)
		vals = append(vals, v)
	}
	if len(keys) > 0 || len(seps) == 0 {
		flushLeaf(keys, vals)
	}

	// Build inner levels until one node remains; it becomes the root.
	innerCap := t.opts.InnerNodeSize * bulkFillNum / bulkFillDen
	if innerCap < 2 {
		innerCap = 2
	}
	level := seps
	for len(level) > 1 {
		var up []sep
		var prevInner *delta
		for start := 0; start < len(level); start += innerCap {
			end := min(start+innerCap, len(level))
			// Avoid a dangling single-entry last node.
			if len(level)-start < 2*innerCap && len(level)-start > innerCap {
				end = start + (len(level)-start+1)/2
			}
			ks := make([][]byte, 0, end-start)
			kids := make([]nodeID, 0, end-start)
			for _, s := range level[start:end] {
				ks = append(ks, s.key)
				kids = append(kids, s.id)
			}
			nb := newBaseNode(kInnerBase)
			nb.size = int32(len(ks))
			nb.kids = kids
			nb.lowKey = ks[0]
			setBaseKeys(nb, ks)
			nb.wantSlab = t.opts.Preallocate
			id := t.mt.Allocate()
			t.mt.Store(id, nb)
			if prevInner != nil {
				prevInner.highKey = nb.lowKey
				prevInner.rightSib = id
			}
			prevInner = nb
			up = append(up, sep{key: nb.lowKey, id: id})
		}
		level = up
	}

	// Install the top node's content at the fixed root ID.
	top := t.load(level[0].id)
	var newRoot *delta
	if top.isLeaf {
		// Tiny load: root must remain an inner node over the leaf level.
		newRoot = newBaseNode(kInnerBase)
		newRoot.size = 1
		newRoot.kids = []nodeID{level[0].id}
		setBaseKeys(newRoot, [][]byte{nil})
	} else {
		// Adopt the top node's payload wholesale.
		newRoot = newBaseNode(kInnerBase)
		newRoot.size = top.size
		tb := top.baseData
		newRoot.offs, newRoot.pfx, newRoot.nil0 = tb.offs, tb.pfx, tb.nil0
		newRoot.sfx, newRoot.kids, newRoot.arena = tb.sfx, tb.kids, tb.arena
		t.mt.Recycle(level[0].id)
	}
	newRoot.wantSlab = t.opts.Preallocate
	t.mt.Store(t.root, newRoot)
	t.mt.Recycle(oldLeafID)
	return nil
}

// Compact rebuilds the tree into a fresh instance with a minimal mapping
// table and fully-consolidated nodes. This is the paper's answer to
// shrinking the mapping table (§3.3): "The only way to shrink the Mapping
// Table is to block all worker threads and rebuild the index." The
// receiver must be quiescent; it remains valid (and unchanged) afterwards.
func (t *Tree) Compact() (*Tree, error) {
	nt := New(t.opts)
	s := t.NewSession()
	defer s.Release()
	it := s.NewIterator()
	it.SeekFirst()
	err := nt.BulkLoad(func() ([]byte, uint64, bool) {
		if !it.Valid() {
			return nil, 0, false
		}
		k, v := it.Key(), it.Value()
		it.Next()
		return k, v, true
	})
	if err != nil {
		nt.Close()
		return nil, err
	}
	return nt, nil
}
