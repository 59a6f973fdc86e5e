// Package mapping implements the Bw-Tree's indirection layer: a lock-free
// table that maps logical node IDs to physical pointers.
//
// The paper (§3.3) reserves a large virtual address range and lets the OS
// lazily back it with physical pages. Go cannot portably reserve-without-
// commit, so this package uses the closest lock-free equivalent: a two-level
// array whose fixed spine holds pointers to fixed-size chunks that are
// allocated lazily and installed with compare-and-swap. Lookups stay O(1)
// and never take a lock; the table grows but — like the paper's design —
// never shrinks.
package mapping

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

const (
	// ChunkBits is the log2 of entries per lazily-allocated chunk.
	ChunkBits = 16
	// ChunkSize is the number of entries per chunk (64Ki pointers = 512KiB).
	ChunkSize = 1 << ChunkBits
	chunkMask = ChunkSize - 1
	// SpineSize bounds the number of chunks; SpineSize*ChunkSize is the
	// maximum number of logical node IDs (64Ki * 64Ki = 2^32).
	SpineSize = 1 << 16
)

// Table maps logical node IDs to physical pointers of type T. The zero
// value is not usable; construct with New.
//
// All methods are safe for concurrent use without external locking.
type Table[T any] struct {
	spine []atomic.Pointer[chunk[T]]
	next  atomic.Uint64 // next never-allocated ID
	free  freeList      // recycled IDs
}

type chunk[T any] struct {
	slots [ChunkSize]atomic.Pointer[T]
}

// New returns an empty table with capacity for SpineSize*ChunkSize IDs.
// hint is the expected number of live IDs; chunks covering [0, hint) are
// allocated eagerly so the hot path never faults on chunk installation.
func New[T any](hint int) *Table[T] {
	t := &Table[T]{spine: make([]atomic.Pointer[chunk[T]], SpineSize)}
	for i := 0; i <= hint>>ChunkBits && i < SpineSize; i++ {
		t.spine[i].Store(&chunk[T]{})
	}
	return t
}

// Allocate returns a fresh logical node ID, reusing recycled IDs first.
func (t *Table[T]) Allocate() uint64 {
	if id, ok := t.free.pop(); ok {
		return id
	}
	id := t.next.Add(1) - 1
	if id >= SpineSize*ChunkSize {
		panic(fmt.Sprintf("mapping: table exhausted (%d IDs)", id))
	}
	return id
}

// Recycle returns an ID to the allocator. The caller must guarantee no
// thread can still translate the ID (i.e. the epoch that retired the node
// has drained).
func (t *Table[T]) Recycle(id uint64) {
	t.Store(id, nil)
	t.free.push(id)
}

// chunkFor returns the chunk containing id, installing it if necessary.
func (t *Table[T]) chunkFor(id uint64) *chunk[T] {
	s := &t.spine[id>>ChunkBits]
	if c := s.Load(); c != nil {
		return c
	}
	fresh := &chunk[T]{}
	if s.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return s.Load()
}

// Load translates a logical node ID to its current physical pointer.
func (t *Table[T]) Load(id uint64) *T {
	c := t.spine[id>>ChunkBits].Load()
	if c == nil {
		return nil
	}
	return c.slots[id&chunkMask].Load()
}

// Store unconditionally installs ptr for id. Used only during node
// creation, before the ID is published to other threads.
func (t *Table[T]) Store(id uint64, ptr *T) {
	t.chunkFor(id).slots[id&chunkMask].Store(ptr)
}

// CompareAndSwap atomically replaces the pointer for id if it still equals
// old. This is the single primitive every Bw-Tree state change reduces to.
func (t *Table[T]) CompareAndSwap(id uint64, old, new *T) bool {
	return t.chunkFor(id).slots[id&chunkMask].CompareAndSwap(old, new)
}

// freeList is a Treiber stack of recycled IDs.
//
// ABA audit. A Treiber stack's classic failure is pop's CaS(head, h ->
// h.next) succeeding after head moved away from h and back to it, leaving
// h.next stale. Two distinct hazards have to be ruled out here:
//
//  1. Node-level ABA (stale h.next): impossible. Every push allocates a
//     fresh freeNode — a node object is pushed exactly once and never
//     re-enters the stack, so a given *freeNode can be the head at most
//     once in its lifetime; head can never return to a previously-popped
//     node. A node's next field is only written before its publishing CaS
//     and is immutable afterwards, so a successful pop CaS always installs
//     the next the node was published with. Go's garbage collector keeps a
//     popped node alive while any racing pop still holds the pointer,
//     which is what rules out the reuse-after-free variant that bites
//     manual reclamation (the hazard §4.2 of the paper works around with
//     epochs).
//
//  2. ID-level reuse (the same uint64 cycling pop -> use -> Recycle ->
//     push while another thread holds a stale reference to the ID): not
//     the stack's problem, by contract. Recycle requires the retiring
//     epoch to have drained first, so no thread can still translate the ID
//     when it re-enters the free list; Recycle also nils the slot before
//     pushing, and that store happens-before any subsequent Allocate
//     returning the ID (pop's acquire CaS observes push's release CaS), so
//     the new owner always observes an empty slot, never a stale pointer.
type freeList struct {
	head atomic.Pointer[freeNode]
	// size tracks the stack length for occupancy reporting. It is bumped
	// after the publishing CaS, so it momentarily lags the true length —
	// fine for a gauge, and it keeps push/pop single-CaS.
	size atomic.Int64
}

type freeNode struct {
	id   uint64
	next *freeNode
}

func (f *freeList) push(id uint64) {
	n := &freeNode{id: id}
	for {
		h := f.head.Load()
		n.next = h
		if f.head.CompareAndSwap(h, n) {
			f.size.Add(1)
			return
		}
	}
}

func (f *freeList) pop() (uint64, bool) {
	for {
		h := f.head.Load()
		if h == nil {
			return 0, false
		}
		if f.head.CompareAndSwap(h, h.next) {
			f.size.Add(-1)
			return h.id, true
		}
	}
}

// len returns the approximate free-list length (never negative).
func (f *freeList) len() uint64 {
	if n := f.size.Load(); n > 0 {
		return uint64(n)
	}
	return 0
}

// TableStats is a point-in-time occupancy snapshot of the mapping table.
type TableStats struct {
	// Allocated is the high-water mark: IDs ever handed out, including
	// ones since recycled.
	Allocated uint64
	// Free is the approximate number of recycled IDs awaiting reuse.
	Free uint64
	// Live is Allocated - Free: logical node IDs currently in use.
	Live uint64
	// Capacity is the table's fixed maximum number of IDs.
	Capacity uint64
}

// Stats reports table occupancy. The counters are read independently, so
// under concurrent churn Live is approximate (gauge-grade, not exact).
func (t *Table[T]) Stats() TableStats {
	st := TableStats{
		Allocated: t.next.Load(),
		Free:      t.free.len(),
		Capacity:  SpineSize * ChunkSize,
	}
	if st.Allocated > st.Free {
		st.Live = st.Allocated - st.Free
	}
	return st
}

// MemoryFootprint returns the approximate bytes committed by the table's
// spine and installed chunks (core's StructureStats.MappingBytes).
func (t *Table[T]) MemoryFootprint() uintptr {
	var total uintptr = unsafe.Sizeof(atomic.Pointer[chunk[T]]{}) * SpineSize
	for i := range t.spine {
		if t.spine[i].Load() != nil {
			total += unsafe.Sizeof(chunk[T]{})
		}
	}
	return total
}
