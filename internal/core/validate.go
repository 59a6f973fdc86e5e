package core

import (
	"bytes"
	"fmt"
	"strings"
)

// Validate checks the structural invariants of a quiescent tree and
// returns a descriptive error on the first violation. It is meant for
// tests and debugging; it must not run concurrently with mutations.
//
// Checked invariants:
//   - every leaf's materialized keys are sorted and inside [low, high)
//   - sibling links stitch leaves into one ordered chain
//   - inner separators route exactly onto their children's low keys
//   - the item count attribute matches the materialized content
//   - every inner base carries its suffix-word plane
//   - each chain element owns exactly its kind's payloads: a baseData on
//     bases only, an smoData on the four SMO kinds only
//   - a leaf base holds one value and one version stamp per key, the
//     slots an in-place update writes
//   - only a base a writer built holds a slab, and the slab holds no
//     record at or past its marker
func (t *Tree) Validate() error {
	s := t.NewSession()
	defer s.Release()
	return t.validateNode(s, t.root, nil, nil)
}

func (t *Tree) validateNode(s *Session, id nodeID, low, high []byte) error {
	head := t.load(id)
	if head == nil {
		return fmt.Errorf("node %d: nil mapping entry", id)
	}
	if head.kind == kRemove || head.kind == kAbort {
		return fmt.Errorf("node %d: dangling %v at head", id, head.kind)
	}
	if !sameKey(head.lowKey, low) {
		return fmt.Errorf("node %d: low key %q, parent separator %q", id, head.lowKey, low)
	}
	if err := checkPayloads(head); err != nil {
		return fmt.Errorf("node %d: %v", id, err)
	}
	sl := head.base.slab.Load()
	if sl != nil && !head.base.wantSlab {
		return fmt.Errorf("node %d: a base no writer built holds a slab", id)
	}
	if err := checkSlabTail(sl); err != nil {
		return fmt.Errorf("node %d: %v", id, err)
	}
	c := s.collect(head)
	if int(head.size) != len(c.keys) {
		return fmt.Errorf("node %d: size attribute %d, materialized %d items", id, head.size, len(c.keys))
	}
	var prev []byte
	for i, k := range c.keys {
		if i == 0 && k == nil {
			continue // -inf separator of a leftmost inner node
		}
		if k == nil {
			return fmt.Errorf("node %d: nil key at position %d", id, i)
		}
		if prev != nil && bytes.Compare(prev, k) > 0 {
			return fmt.Errorf("node %d: keys out of order at %d (%q > %q)", id, i, prev, k)
		}
		if low != nil && bytes.Compare(k, low) < 0 {
			return fmt.Errorf("node %d: key %q below low bound %q", id, k, low)
		}
		if high != nil && bytes.Compare(k, high) >= 0 {
			return fmt.Errorf("node %d: key %q at/above high bound %q", id, k, high)
		}
		prev = k
	}
	if !head.isLeaf {
		if len(c.keys) == 0 {
			return fmt.Errorf("inner node %d: empty", id)
		}
		if !sameKey(c.keys[0], low) {
			return fmt.Errorf("inner node %d: first separator %q != low bound %q", id, c.keys[0], low)
		}
		if err := checkSuffixWords(head.base); err != nil {
			return fmt.Errorf("inner node %d: %v", id, err)
		}
		for i := range c.keys {
			childHigh := high
			if i+1 < len(c.keys) {
				childHigh = c.keys[i+1]
			}
			if err := t.validateNode(s, c.kids[i], c.keys[i], childHigh); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPayloads walks a chain, and the content chains its ∆merges
// absorbed, requiring every element to own exactly the payloads of its
// kind: a base its baseData, an SMO record its smoData, and nothing else
// either. A record that carries a stray payload wastes the memory the
// split layout saves; one that lacks its payload panics the first reader.
func checkPayloads(head *delta) error {
	for d := head; d != nil; d = d.next {
		isBase := d.kind == kLeafBase || d.kind == kInnerBase
		if isBase != (d.baseData != nil) {
			return fmt.Errorf("%v at depth %d: base payload present=%v", d.kind, d.depth, d.baseData != nil)
		}
		if d.kind.ownsSMO() != (d.smoData != nil) {
			return fmt.Errorf("%v at depth %d: SMO fields present=%v", d.kind, d.depth, d.smoData != nil)
		}
		if d.kind == kLeafBase {
			if n := d.baseLen(); len(d.vals) != n || len(d.vers) != n {
				return fmt.Errorf("leaf base at depth %d: %d keys, %d values, %d version stamps", d.depth, n, len(d.vals), len(d.vers))
			}
		}
		if d.kind == kMerge {
			if err := checkPayloads(d.mergeContent); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSlabTail requires every slot of sl at or past its marker to be
// zero. A slab is all-zero when made and cleared when it is pooled, so a
// record there is one a recycled slab kept: it pins a retired chain.
func checkSlabTail(sl *slab) error {
	if sl == nil {
		return nil
	}
	for i := sl.used(); i < len(sl.slots); i++ {
		if sl.slots[i].holdsRecord() {
			return fmt.Errorf("slab slot %d of %d holds a record past the marker %d", i, len(sl.slots), sl.used())
		}
	}
	return nil
}

// holdsRecord reports whether slot d carries any pointer a record sets.
// delta is not comparable, so the check goes field by field.
func (d *delta) holdsRecord() bool {
	return d.next != nil || d.base != nil || d.key != nil || d.lowKey != nil ||
		d.highKey != nil || d.baseData != nil || d.smoData != nil
}

// checkSuffixWords requires inner base b to carry one suffix word per
// key, packed as buildSuffixWords packs it: routeSearch has no arm for a
// base without its plane.
func checkSuffixWords(b *delta) error {
	n := b.baseLen()
	if len(b.sfx) != n {
		return fmt.Errorf("inner base has %d suffix words for %d keys", len(b.sfx), n)
	}
	for i := 0; i < n; i++ {
		var want uint64
		if k := b.baseKey(i); int(b.pfx) < len(k) {
			want = keyWord(k[b.pfx:])
		}
		if b.sfx[i] != want {
			return fmt.Errorf("suffix word %d is %#x, want %#x", i, b.sfx[i], want)
		}
	}
	return nil
}

// Count returns the number of items by scanning leaf nodes through the
// sibling chain. Quiescent use only.
func (t *Tree) Count() int {
	s := t.NewSession()
	defer s.Release()
	total := 0
	it := s.NewIterator()
	for it.SeekFirst(); it.Valid(); it.Next() {
		total++
	}
	return total
}

// Dump renders the tree's structure for debugging.
func (t *Tree) Dump() string {
	s := t.NewSession()
	defer s.Release()
	var b strings.Builder
	t.dumpNode(s, &b, t.root, 0)
	return b.String()
}

func (t *Tree) dumpNode(s *Session, b *strings.Builder, id nodeID, indent int) {
	head := t.load(id)
	pad := strings.Repeat("  ", indent)
	if head == nil {
		fmt.Fprintf(b, "%s[%d] <nil>\n", pad, id)
		return
	}
	fmt.Fprintf(b, "%s[%d] %v depth=%d size=%d low=%q high=%q sib=%d\n",
		pad, id, head.kind, head.depth, head.size, head.lowKey, head.highKey, int64(head.rightSib))
	c := s.collect(head)
	if head.isLeaf {
		for i := range c.keys {
			if i >= 8 {
				fmt.Fprintf(b, "%s  … %d more\n", pad, len(c.keys)-i)
				break
			}
			fmt.Fprintf(b, "%s  %q = %d\n", pad, c.keys[i], c.vals[i])
		}
		return
	}
	for i := range c.keys {
		fmt.Fprintf(b, "%s  sep %q:\n", pad, c.keys[i])
		t.dumpNode(s, b, c.kids[i], indent+2)
	}
}

// ConsolidateAll folds every delta chain in the tree into plain base
// nodes. Quiescent use only; exists for the Fig. 18 "disable delta
// chains" decomposition and for iterator/benchmark warm-up.
func (t *Tree) ConsolidateAll() {
	s := t.NewSession()
	defer s.Release()
	t.consolidateAllNode(s, t.root)
}

func (t *Tree) consolidateAllNode(s *Session, id nodeID) {
	head := t.load(id)
	if head == nil {
		return
	}
	// Children first: a child's split or merge posts separators into this
	// node, which the final self-consolidation folds away.
	if !head.isLeaf {
		c := s.collect(head)
		for _, kid := range c.kids {
			t.consolidateAllNode(s, kid)
		}
	}
	for range [4]struct{}{} {
		head = t.load(id)
		if head == nil || head.depth == 0 && (head.kind == kLeafBase || head.kind == kInnerBase) {
			return
		}
		s.consolidateID(id, head, invalidNode, nil, false)
	}
}

// FrozenTree is a read-only snapshot with direct child pointers — the
// mapping-table indirection removed. It implements the Fig. 18 "disable
// mapping table" decomposition: point lookups walk physical pointers only.
type FrozenTree struct {
	root *frozenNode
}

type frozenNode struct {
	keys [][]byte
	vals []uint64
	kids []*frozenNode
	leaf bool
}

// Freeze materializes a read-only snapshot of the tree with node IDs
// replaced by physical pointers. Quiescent use only.
func (t *Tree) Freeze() *FrozenTree {
	s := t.NewSession()
	defer s.Release()
	return &FrozenTree{root: t.freezeNode(s, t.root)}
}

func (t *Tree) freezeNode(s *Session, id nodeID) *frozenNode {
	head := t.load(id)
	c := s.collect(head)
	fn := &frozenNode{keys: c.keys, leaf: head.isLeaf}
	if head.isLeaf {
		fn.vals = c.vals
		return fn
	}
	fn.kids = make([]*frozenNode, len(c.kids))
	for i, kid := range c.kids {
		fn.kids[i] = t.freezeNode(s, kid)
	}
	return fn
}

// Lookup returns the value for key in the snapshot.
func (f *FrozenTree) Lookup(key []byte) (uint64, bool) {
	n := f.root
	for !n.leaf {
		lo, hi := 0, len(n.keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if n.keys[mid] == nil || bytes.Compare(n.keys[mid], key) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			lo = 1
		}
		n = n.kids[lo-1]
	}
	pos, exact := searchKeys(n.keys, key)
	if !exact {
		return 0, false
	}
	return n.vals[pos], true
}
