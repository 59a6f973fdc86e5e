package core

import "unsafe"

// StructureStats summarizes the tree's physical shape: average delta chain
// lengths, base node sizes, and pre-allocation utilization — the
// quantities reported in Table 2 of the paper (IDCL, LDCL, INS, LNS, IPU,
// LPU) — plus memory-footprint metrics for the base-node key arena.
// Collect with Tree.StructureStats on a quiescent tree.
type StructureStats struct {
	InnerNodes int
	LeafNodes  int
	Height     int

	AvgInnerChainLen float64 // IDCL
	AvgLeafChainLen  float64 // LDCL
	AvgInnerNodeSize float64 // INS (separator items per inner base)
	AvgLeafNodeSize  float64 // LNS (key-value items per leaf base)
	InnerPreallocUse float64 // IPU (fraction of slab slots claimed)
	LeafPreallocUse  float64 // LPU

	// Memory-footprint metrics:

	// ArenaBytes is the total footprint of base key storage: arena bytes
	// plus 4 bytes per offset-array entry plus 8 per suffix word.
	ArenaBytes int64
	// InnerArenaBytes is the inner-node share of ArenaBytes; the leaf
	// share is the difference.
	InnerArenaBytes int64
	// KeyBytes is the total key payload across all base nodes, excluding
	// offset arrays and suffix words.
	KeyBytes int64
	// GCPtrsPerLeaf / GCPtrsPerInner are the average GC-visible payload
	// pointers per base node: the non-nil pointer-bearing fields of its
	// payload (arena, offsets, values or children, versions, suffix
	// words, slab), which is what Go's collector must trace per node.
	GCPtrsPerLeaf  float64
	GCPtrsPerInner float64
	// LeafBytesPerEntry is average key+value payload bytes per leaf item.
	LeafBytesPerEntry float64

	// LeafSlabBytes / InnerSlabBytes are the pre-allocated delta areas
	// (§4.1) of the live leaf and inner bases: slots times the delta
	// record size, claimed or not.
	LeafSlabBytes  int64
	InnerSlabBytes int64
	// PooledSlabs / PooledSlabBytes are the idle slabs, leaf plus inner,
	// waiting in the tree's recycling pools for a future base: memory
	// the tree holds that no node reaches.
	PooledSlabs     int64
	PooledSlabBytes int64
	// MappingBytes is the mapping table's committed footprint: its spine
	// plus every installed chunk (mapping.Table.MemoryFootprint).
	MappingBytes int64
}

// StructureStats walks the tree and aggregates shape statistics. The walk
// holds an epoch pin so concurrently retired chains stay safe to read,
// but the numbers are only exact on a quiescent tree.
func (t *Tree) StructureStats() StructureStats {
	var st StructureStats
	var innerChain, leafChain, innerSize, leafSize float64
	var innerSlabUsed, innerSlabCap, leafSlabUsed, leafSlabCap float64
	var leafPtrs, innerPtrs float64
	var leafItems, leafPayload int64
	slotBytes := int64(unsafe.Sizeof(delta{}))
	s := t.NewSession()
	defer s.Release()
	s.h.Enter()
	defer s.h.Exit()

	// footprint accumulates the layout metrics for one base node and
	// returns its GC-visible payload pointer count.
	footprint := func(base *delta) float64 {
		fb := int64(len(base.arena)) + 4*int64(len(base.offs)) + 8*int64(len(base.sfx))
		st.ArenaBytes += fb
		st.KeyBytes += int64(len(base.arena))
		if !base.isLeaf {
			st.InnerArenaBytes += fb
		}
		ptrs := 1 // offs: every base has one, empty or not
		for _, live := range []bool{base.arena != nil, base.sfx != nil, base.kids != nil,
			base.vals != nil, base.vers != nil, base.slab.Load() != nil} {
			if live {
				ptrs++
			}
		}
		return float64(ptrs)
	}

	var walk func(id nodeID, depth int)
	walk = func(id nodeID, depth int) {
		head := t.load(id)
		if head == nil {
			return
		}
		if depth+1 > st.Height {
			st.Height = depth + 1
		}
		base := head.base
		if head.isLeaf {
			st.LeafNodes++
			leafChain += float64(head.depth)
			n := base.baseLen()
			leafSize += float64(n)
			leafItems += int64(n)
			before := st.KeyBytes
			leafPtrs += footprint(base)
			leafPayload += st.KeyBytes - before + 8*int64(n)
			if sl := base.slab.Load(); sl != nil {
				leafSlabUsed += float64(sl.used())
				leafSlabCap += float64(len(sl.slots))
				st.LeafSlabBytes += int64(len(sl.slots)) * slotBytes
			}
			return
		}
		st.InnerNodes++
		innerChain += float64(head.depth)
		innerSize += float64(base.baseLen())
		innerPtrs += footprint(base)
		if sl := base.slab.Load(); sl != nil {
			innerSlabUsed += float64(sl.used())
			innerSlabCap += float64(len(sl.slots))
			st.InnerSlabBytes += int64(len(sl.slots)) * slotBytes
		}
		c := s.collect(head)
		for _, kid := range c.kids {
			walk(kid, depth+1)
		}
	}
	walk(t.root, 0)

	leafPooled, innerPooled := t.leafSlabs.n.Load(), t.innerSlabs.n.Load()
	st.PooledSlabs = leafPooled + innerPooled
	st.PooledSlabBytes = (leafPooled*int64(t.opts.LeafChainLength) +
		innerPooled*int64(t.opts.InnerChainLength)) * slotBytes
	st.MappingBytes = int64(t.mt.MemoryFootprint())

	if st.InnerNodes > 0 {
		st.AvgInnerChainLen = innerChain / float64(st.InnerNodes)
		st.AvgInnerNodeSize = innerSize / float64(st.InnerNodes)
		st.GCPtrsPerInner = innerPtrs / float64(st.InnerNodes)
	}
	if st.LeafNodes > 0 {
		st.AvgLeafChainLen = leafChain / float64(st.LeafNodes)
		st.AvgLeafNodeSize = leafSize / float64(st.LeafNodes)
		st.GCPtrsPerLeaf = leafPtrs / float64(st.LeafNodes)
	}
	if leafItems > 0 {
		st.LeafBytesPerEntry = float64(leafPayload) / float64(leafItems)
	}
	if innerSlabCap > 0 {
		st.InnerPreallocUse = innerSlabUsed / innerSlabCap
	}
	if leafSlabCap > 0 {
		st.LeafPreallocUse = leafSlabUsed / leafSlabCap
	}
	return st
}
