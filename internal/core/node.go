package core

import (
	"bytes"
	"sync/atomic"
)

// nodeID is a logical node identifier resolved through the mapping table.
type nodeID = uint64

const invalidNode nodeID = ^nodeID(0)

// kind tags every element of a Delta Chain.
type kind uint8

const (
	kLeafBase kind = iota
	kInnerBase
	kLeafInsert
	kLeafDelete
	kLeafUpdate
	kInnerInsert // ∆separator posted by a split (Appendix A.1, Stage III)
	kInnerDelete // ∆separator removal posted by a merge (Appendix A.2, Stage III)
	kSplit       // half-split marker on the split node (Stage II)
	kMerge       // merge marker on the surviving left sibling (Stage II)
	kRemove      // removal marker on the node being merged away (Stage I)
	kAbort       // write-lock on a parent during a merge (Appendix B)
)

var kindNames = [...]string{
	"LeafBase", "InnerBase", "LeafInsert", "LeafDelete", "LeafUpdate",
	"InnerInsert", "InnerDelete", "Split", "Merge", "Remove", "Abort",
}

func (k kind) String() string { return kindNames[k] }

// delta is one element of a logical node: either a base node's header or
// a delta record. A single struct with a kind tag keeps chain traversal
// free of interface dispatch. Every element carries the logical node's
// attributes as of the moment it was appended (Table 1 of the paper), so
// navigation and SMO decisions never need to replay the chain.
//
// The struct holds only what every element needs: the attributes and the
// leaf record fields. A base keeps its key/value/child payload in a
// baseData allocated in the same object (baseNode), and the four SMO kinds
// keep their routing fields in an smoData; both hang off embedded
// pointers, so head.kids or d.child need no cast, and a plain leaf
// record, or a slab slot, pays for neither payload. Validate checks who
// owns which payload.
type delta struct {
	kind   kind
	isLeaf bool
	// depth is the number of delta records above the base (0 for bases).
	depth uint16
	// size is the logical node's item count at this point in time.
	size int32
	// offset is the base-node position associated with the record's key:
	// for an insert, where the key would land in the base; for a delete,
	// where the existing key sits. Drives fast consolidation (§4.3) and
	// search shortcuts (§4.4). Negative when unknown.
	offset int32
	// reads counts the point reads and in-place stores that walked this
	// leaf chain head (never a base), a store weighing
	// LeafNodeSize/LeafChainLength; a write that posts a delta replaces
	// the head, so it restarts at zero. It fills the padding before
	// lowKey, so the struct does not grow (readDone, storeDone).
	reads atomic.Uint32

	// *baseData is non-nil exactly on kLeafBase/kInnerBase elements and
	// points into the same baseNode allocation (newBaseNode). It shares
	// the first cache line with kind, so a descent that tests the kind
	// has the payload's address without another miss.
	*baseData
	// *smoData is non-nil exactly on kSplit, kInnerInsert, kInnerDelete
	// and kMerge records (newSMO).
	*smoData

	// lowKey is the smallest key of the logical node (nil = -inf).
	lowKey []byte
	// highKey is the smallest key of the right sibling (nil = +inf).
	highKey []byte
	// rightSib is the logical ID of the right sibling (invalidNode if none).
	rightSib nodeID

	// next points toward the base node; nil for base nodes.
	next *delta
	// base points directly at the chain's base node (itself for bases),
	// giving O(1) access to the pre-allocation slab.
	base *delta

	// key is the record's key: the inserted/deleted/updated key for leaf
	// records, the separator key for inner records, the split key for
	// kSplit, and the merge key (right branch's low key) for kMerge.
	key []byte
	// value is the leaf record's value.
	value uint64
	// oldValue is the value replaced by a kLeafUpdate.
	oldValue uint64
	// ver is the record's version stamp, drawn from the tree-global
	// counter when a leaf insert/update/delete is published. Versions are
	// the observation primitive of the optimistic transaction layer
	// (internal/txn): a reader records the version it saw and a validator
	// re-reads it, so any intervening publish — which necessarily drew a
	// fresh counter value — is detected. Absent keys read as version 0.
	// Versions are in-memory only; recovery restamps from fresh counters.
	ver uint64
}

// baseData is a base node's payload: keys with vals for leaves, keys with
// kids for inner nodes, where kids[i] covers [key i, key i+1). Key 0 of
// an inner base equals the node's low key. The fields a descent reads on
// every inner level (offs, pfx, nil0, sfx, kids) come first, so they sit
// next to the header in the co-allocated baseNode.
//
// Keys live in one arena (see flatnode.go): key i is
// arena[offs[i]:offs[i+1]], pfx is the length of a prefix shared by every
// key, and nil0 marks a leftmost inner base whose key 0 is the nil -inf
// separator. Access goes through baseLen/baseKey/baseSearch*.
type baseData struct {
	offs []uint32
	pfx  uint32
	nil0 bool
	// wantSlab marks a base a writer built while Preallocate is on: its
	// first delta installs slab (allocDelta). It fills the padding after
	// nil0, so baseData does not grow.
	wantSlab bool
	// sfx is the partial-key search plane every inner base carries:
	// sfx[i] is the first 8 post-prefix bytes of key i packed big-endian
	// (zero padded), so a routing probe binary-searches one pointer-free,
	// line-sequential word array with register compares and touches the
	// arena only on the rare word tie (see wordSearch).
	sfx   []uint64
	kids  []nodeID
	arena []byte
	// vals are a leaf base's values. With Options.UpdateInPlace a slot
	// can change after publication, so a reader that does not hold the
	// base sealed loads it atomically (see inplace.go).
	vals []uint64
	// seq is a leaf base's sequence word: odd while an in-place update
	// writes a slot, advanced by 2 per update, and carrying seqSealed
	// once a copy of the base has been taken (inplace.go).
	seq atomic.Uint64
	// vers carries the per-record version stamps of a leaf base, parallel
	// to vals; consolidation preserves each surviving record's stamp so a
	// record's version only changes when its value may have.
	vers []uint64

	// slab is the node's pre-allocated delta area: nil until the first
	// delta on a wantSlab base installs one, and nil for good otherwise.
	slab atomic.Pointer[slab]
}

// baseNode co-allocates a base header with its payload. Allocating the
// payload separately costs a descent one more cache miss per level; in
// one object the header's baseData pointer lands next to its target.
type baseNode struct {
	hdr  delta
	data baseData
}

// newBaseNode returns the header of a fresh base node of kind k (kLeafBase
// or kInnerBase) with an empty payload, no right sibling, and base
// pointing at itself.
func newBaseNode(k kind) *delta {
	bn := &baseNode{hdr: delta{kind: k, isLeaf: k == kLeafBase, rightSib: invalidNode}}
	bn.hdr.baseData = &bn.data
	bn.hdr.base = &bn.hdr
	return &bn.hdr
}

// smoData holds the fields only structure-modification records route by.
type smoData struct {
	// child is the routed node: the new separator's child for
	// kInnerInsert, and the new right sibling for kSplit.
	child nodeID
	// nextKey bounds the routing interval of kInnerInsert/kInnerDelete
	// records on the right (nil = the node's high key).
	nextKey []byte
	// leftKey/leftChild describe the separator immediately left of a
	// deleted separator: a kInnerDelete routes [leftKey, nextKey) to
	// leftChild.
	leftKey   []byte
	leftChild nodeID
	// mergeContent is the physical pointer to the absorbed right branch's
	// chain (kMerge); deleteID is the right branch's logical ID, recycled
	// once the merge completes.
	mergeContent *delta
	deleteID     nodeID
}

// ownsSMO reports whether records of kind k carry an smoData.
func (k kind) ownsSMO() bool {
	switch k {
	case kSplit, kInnerInsert, kInnerDelete, kMerge:
		return true
	}
	return false
}

// newSMO returns a heap-allocated record of SMO kind k with its smoData.
func newSMO(k kind) *delta {
	return &delta{kind: k, smoData: &smoData{}}
}

// slab is the pre-allocated delta area attached to a base node (§4.1).
// Threads claim slots with a single atomic add on marker; the slots array
// is contiguous, so chain traversal touches adjacent memory. A base takes
// its slab at its first delta, not when it is built, so a leaf that is
// only read or updated in place holds none. When the slab is exhausted
// the claiming thread triggers a consolidation, whose fresh base takes a
// slab again at its own first delta.
type slab struct {
	marker atomic.Int32
	slots  []delta
}

// newSlab returns a slab with n delta slots.
func newSlab(n int) *slab {
	return &slab{slots: make([]delta, n)}
}

// claim reserves one slot, or returns nil when the slab is full. A slot
// claimed by a thread whose subsequent CaS fails is simply wasted, exactly
// as in the paper (it lowers the utilization reported in Table 2). The
// slot is already zero: a slab is all-zero when made, and retireChain
// clears the claimed slots before the pool takes it back.
func (s *slab) claim() *delta {
	i := s.marker.Add(1) - 1
	if int(i) >= len(s.slots) {
		return nil
	}
	return &s.slots[i]
}

// slabPool recycles retired slabs: a Treiber stack fed by epoch-GC
// reclamation callbacks. This is the moral equivalent of the paper's
// allocator returning node chunks once their epoch drains — and it is
// what makes pre-allocation pay off under Go's GC, where allocating a
// fresh pointer-dense slab per consolidation would dwarf the delta
// allocations it saves. A pooled slab holds no record: it is cleared
// before put, so an idle slab pins no retired chain. The pool keeps at
// most maxPooledSlabs slabs and leaves the rest to the Go GC, so it never
// hoards what the bases give up.
type slabPool struct {
	head atomic.Pointer[pooledSlab]
	// n counts the slabs on the stack (StructureStats.PooledSlabs).
	n atomic.Int64
}

type pooledSlab struct {
	s    *slab
	next *pooledSlab
}

// maxPooledSlabs bounds each pool: enough to feed the first deltas of a
// burst of writes, small beside a tree of thousands of leaves.
const maxPooledSlabs = 256

// full reports whether the pool holds its bound.
func (p *slabPool) full() bool { return p.n.Load() >= maxPooledSlabs }

// put pushes s unless the pool already holds maxPooledSlabs, in which
// case s is left to the Go GC.
func (p *slabPool) put(s *slab) {
	for {
		// Counted before the push, so a racing get never drives n below 0.
		c := p.n.Load()
		if c >= maxPooledSlabs {
			return
		}
		if p.n.CompareAndSwap(c, c+1) {
			break
		}
	}
	n := &pooledSlab{s: s}
	for {
		h := p.head.Load()
		n.next = h
		if p.head.CompareAndSwap(h, n) {
			return
		}
	}
}

// get pops a recycled slab with at least n slots, or allocates a fresh
// one. Pool entries always have the tree's configured size, so a size
// check is only needed defensively.
func (p *slabPool) get(n int) *slab {
	for {
		h := p.head.Load()
		if h == nil {
			return newSlab(n)
		}
		if p.head.CompareAndSwap(h, h.next) {
			p.n.Add(-1)
			if len(h.s.slots) < n {
				return newSlab(n)
			}
			h.s.marker.Store(0)
			return h.s
		}
	}
}

// used reports how many slots have been claimed (clamped to capacity).
func (s *slab) used() int {
	u := int(s.marker.Load())
	if u > len(s.slots) {
		u = len(s.slots)
	}
	return u
}

// inheritFrom copies the logical node's attributes from the current chain
// head into a new delta record and links it.
func (d *delta) inheritFrom(head *delta) {
	d.isLeaf = head.isLeaf
	d.depth = head.depth + 1
	d.size = head.size
	d.offset = head.offset
	d.lowKey = head.lowKey
	d.highKey = head.highKey
	d.rightSib = head.rightSib
	d.next = head
	d.base = head.base
}

// keyGE reports k >= bound where bound may be nil (-inf).
func keyGE(k, bound []byte) bool {
	if bound == nil {
		return true
	}
	return bytes.Compare(k, bound) >= 0
}

// keyGT reports k > bound where bound may be nil (-inf).
func keyGT(k, bound []byte) bool {
	if bound == nil {
		return true
	}
	return bytes.Compare(k, bound) > 0
}

// keyLT reports k < bound where bound may be nil (+inf).
func keyLT(k, bound []byte) bool {
	if bound == nil {
		return true
	}
	return bytes.Compare(k, bound) < 0
}

// keyLE reports k <= bound where bound may be nil (+inf).
func keyLE(k, bound []byte) bool {
	if bound == nil {
		return true
	}
	return bytes.Compare(k, bound) <= 0
}

// searchKeys returns the position of the first element of keys >= k and
// whether an exact match exists there. It serves frozenNode, whose keys
// are a plain [][]byte.
func searchKeys(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], k)
}

// routeBaseInner returns the child of an inner base node that covers k:
// with strict set, the child of the largest separator <= k (the first
// separator > k, minus one); without it, the child of the largest
// separator < k, which covers keys immediately below k — the
// backward-iteration rule of Appendix C.2. The caller guarantees k >=
// node.lowKey, so position 0 always covers underflow. A nil separator at
// position 0 (-inf) compares below any valid key.
func routeBaseInner(n *baseData, k []byte, strict bool) nodeID {
	lo := n.routeSearch(k, strict)
	if lo == 0 {
		return n.kids[0]
	}
	return n.kids[lo-1]
}
