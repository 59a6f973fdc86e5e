package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// This file implements the flat base-node layout (Options.FlatBaseNodes
// for leaf bases, Options.FlatInnerNodes for inner and root bases) and
// the window-search helpers shared by both layouts.
//
// The slice layout stores base keys as keys [][]byte: one 24-byte slice
// header plus a pointer chase per key, so every binary-search probe eats a
// dependent cache miss and Go's GC must scan ~LeafNodeSize pointers per
// leaf. The flat layout materializes all keys of a base into one immutable
// []byte arena plus a []uint32 offset array (key i = arena[offs[i]:
// offs[i+1]], len(offs) = n+1), with the node's common key prefix length
// computed at build time so binary-search comparisons skip it. A flat leaf
// carries ~4 GC-visible payload pointers instead of ~130 and each search
// probe is a sequential read of adjacent arena bytes.
//
// Keys are stored whole (prefix included) so accessors hand out zero-copy
// full-key subslices; the prefix is skipped only during comparisons. A
// leftmost inner base's -inf separator (nil key) is preserved by the nil0
// flag: nil participates in prefix computation as the empty string, which
// forces pfx = 0 for any node containing it, and baseKey(0) returns nil so
// separator semantics (sameKey, sortInnerItems, Validate) are unchanged.

// buildFlat materializes a sorted key set as a flat arena. The offset
// array always has len(keys)+1 entries; a non-nil offs is what marks a
// base node as flat.
func buildFlat(keys [][]byte) (arena []byte, offs []uint32, pfx uint32, nil0 bool) {
	n := len(keys)
	offs = make([]uint32, n+1)
	if n == 0 {
		return nil, offs, 0, false
	}
	nil0 = keys[0] == nil
	// Keys are sorted, so the prefix shared by all of them is the prefix
	// shared by the first and last.
	p := commonPrefix(keys[0], keys[n-1])
	total := 0
	for _, k := range keys {
		total += len(k)
	}
	arena = make([]byte, 0, total)
	for i, k := range keys {
		offs[i] = uint32(len(arena))
		arena = append(arena, k...)
	}
	offs[n] = uint32(len(arena))
	return arena, offs, uint32(p), nil0
}

// commonPrefix returns the length of the longest common prefix of a and b
// (nil behaves as the empty string).
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// setBaseKeys installs a materialized key set into base node nb using the
// tree's configured layout for nb's level: FlatBaseNodes governs leaf
// bases, FlatInnerNodes governs inner and root bases. Every
// base-construction site funnels through here (consolidation via
// buildBase, splits, BulkLoad, New) and sets nb.isLeaf first.
func (t *Tree) setBaseKeys(nb *delta, keys [][]byte) {
	flat := t.opts.FlatBaseNodes
	if !nb.isLeaf {
		flat = t.opts.FlatInnerNodes
	}
	if flat {
		nb.arena, nb.offs, nb.pfx, nb.nil0 = buildFlat(keys)
		if !nb.isLeaf {
			nb.sfx = buildSuffixWords(keys, nb.pfx)
		}
		return
	}
	nb.keys = keys
}

// buildSuffixWords packs the first 8 post-prefix bytes of every key into
// a big-endian word (shorter suffixes are zero padded; the nil -inf
// separator packs to 0). The words order-embed the suffixes: because the
// pad byte 0x00 is the minimum byte, two words compare unequal exactly
// when the underlying suffixes' first 8 bytes order them, and compare
// equal only when those bytes are identical — so a word comparison either
// decides the probe outright or flags the (rare) tie that needs the
// arena. Inner bases only: a descent probes every level's separator set,
// and for fanout-64 nodes the whole plane is ~8 cache lines against ~40
// scattered arena lines, while leaf probes happen once per operation and
// keep the plain arena search. Every flat inner base carries its plane
// (Validate checks it), so routing has no plane-less arm.
func buildSuffixWords(keys [][]byte, pfx uint32) []uint64 {
	sfx := make([]uint64, len(keys))
	for i, k := range keys {
		var b [8]byte
		if int(pfx) < len(k) {
			copy(b[:], k[pfx:])
		}
		sfx[i] = binary.BigEndian.Uint64(b[:])
	}
	return sfx
}

// keyWord packs a probe key's first 8 bytes the same way buildSuffixWords
// packs suffixes.
func keyWord(k []byte) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// anyFlatNodes reports whether either level's bases use the arena layout,
// in which case collected keys can alias a retired chain's arena and
// boundary keys must be cloned before being installed as node attributes.
func (o *Options) anyFlatNodes() bool {
	return o.FlatBaseNodes || o.FlatInnerNodes
}

// cloneBound copies a boundary key, preserving nil (-inf/+inf). Flat-mode
// base construction clones its low/high keys because the collected keys
// they would otherwise alias can point into the replaced chain's arena,
// and a node attribute must not pin its predecessor's arena for the
// node's whole lifetime.
func cloneBound(k []byte) []byte {
	if k == nil {
		return nil
	}
	return append([]byte(nil), k...)
}

// baseLen returns the number of keys in base node n under either layout.
func (n *delta) baseLen() int {
	if n.offs != nil {
		return len(n.offs) - 1
	}
	return len(n.keys)
}

// baseKey returns key i of base node n: a zero-copy subslice of the arena
// for flat bases, the stored slice otherwise. The -inf separator of a
// leftmost inner base is nil under both layouts.
func (n *delta) baseKey(i int) []byte {
	if n.offs != nil {
		if n.nil0 && i == 0 {
			return nil
		}
		return n.arena[n.offs[i]:n.offs[i+1]]
	}
	return n.keys[i]
}

// baseSearch returns the position of the first key of leaf base n >= k
// and whether an exact match exists there, under either layout.
func (n *delta) baseSearch(k []byte) (int, bool) {
	if n.offs != nil {
		return n.flatSearch(k, 0, len(n.offs)-1)
	}
	return searchKeys(n.keys, k)
}

// baseSearchRange is baseSearch restricted to the window [lo, hi) — the
// micro-indexed binary search of §4.4.
func (n *delta) baseSearchRange(k []byte, lo, hi int) (int, bool) {
	if n.offs != nil {
		return n.flatSearch(k, lo, hi)
	}
	return searchKeysRange(n.keys, k, lo, hi)
}

// flatSearch returns the position of the first key of flat leaf base n
// within [lo, hi) that is >= k, plus whether that position holds an exact
// match. The node's common prefix is compared once up front; the binary
// search itself touches suffixes only.
func (n *delta) flatSearch(k []byte, lo, hi int) (int, bool) {
	if p := int(n.pfx); p > 0 {
		m := min(len(k), p)
		// pfx > 0 implies key 0 is not the nil separator, so the shared
		// prefix is the first pfx bytes at offs[0].
		o0 := n.offs[0]
		c := bytes.Compare(k[:m], n.arena[o0:o0+uint32(m)])
		if c < 0 || c == 0 && len(k) < p {
			return lo, false // k sorts before every key of the node
		}
		if c > 0 {
			return hi, false // k sorts after every key of the node
		}
		k = k[p:]
	}
	pos := windowSearch(nil, n.arena, n.offs, n.pfx, k, lo, hi, false)
	exact := pos < len(n.offs)-1 &&
		bytes.Equal(n.arena[n.offs[pos]+n.pfx:n.offs[pos+1]], k)
	return pos, exact
}

// routeSearch is the routing probe of a flat inner base: the position of
// the first separator >= k (strict=false) or > k (strict=true), with no
// exactness bit. The node's common prefix is compared once up front (a
// probe that sorts outside the prefix is resolved by that compare alone);
// the search proper runs over the suffix-word plane. A leftmost inner
// base's nil -inf separator packs to word 0 over an empty suffix, which
// compares below every real key — the same routing decision the slice
// layout makes.
func (n *delta) routeSearch(k []byte, strict bool) int {
	limit := 0
	if strict {
		limit = 1
	}
	hi := len(n.offs) - 1
	if p := int(n.pfx); p > 0 {
		m := min(len(k), p)
		// pfx > 0 implies key 0 is not the nil separator.
		o0 := n.offs[0]
		c := bytes.Compare(k[:m], n.arena[o0:o0+uint32(m)])
		if c < 0 || c == 0 && len(k) < p {
			return 0 // k sorts before every key of the node
		}
		if c > 0 {
			return hi // k sorts after every key of the node
		}
		k = k[p:]
	}
	return n.wordSearch(k, hi, limit)
}

// wordSearch is the routing search over a flat inner base's suffix-word
// plane, written as a branchless lower/upper bound (Knuth's uniform binary
// search): the stride runs through the descending powers of two from the
// width, so the trip count is fixed by the width alone and the body's
// data-dependent decision is a conditional add the compiler lowers to a
// conditional move — no branch for the predictor to miss on the 50/50
// comparison outcome. Each probe is one load from a pointer-free []uint64
// and a register compare instead of a bytes.Compare against scattered
// arena lines — the whole plane of a fanout-64 node spans 8 cache lines.
// An unequal word decides the probe outright (buildSuffixWords' packing
// order-embeds the suffixes); an equal word means the first 8 suffix bytes
// are identical and the tie falls back to the full suffix in the arena —
// rare for separator sets, whose neighbours are whole leaves apart, and
// the branch predictor treats the fallback as never-taken. limit folds the
// bound kind as in windowSearch: 0 finds the first key >= k, 1 the first
// key > k. k arrives with the node's common prefix already stripped.
func (n *delta) wordSearch(k []byte, hi, limit int) int {
	if hi <= 0 {
		return 0
	}
	kw := keyWord(k)
	sfx := n.sfx
	i := 0
	for b := 1 << (bits.Len(uint(hi)) - 1); b != 0; b >>= 1 {
		if m := i + b; m <= hi {
			if w := sfx[m-1]; w != kw {
				if w < kw {
					i = m
				}
			} else if bytes.Compare(n.arena[n.offs[m-1]+n.pfx:n.offs[m]], k) < limit {
				i = m
			}
		}
	}
	return i
}

// windowSearch returns the smallest position in [lo, hi) whose key is
// >= k (strict=false) or > k (strict=true); hi when no key qualifies.
// This is the binary search behind every leaf probe and slice-layout
// route: searchKeys/searchKeysRange, flatSearch, and both routeBaseInner
// variants on slice inner bases reduce to a lower or upper bound over one
// of the layouts; flat inner bases route through wordSearch.
// Slice probes pass keys (offs nil); flat probes pass arena/offs/pfx with
// k already stripped of the node's common prefix. The layout branch sits
// inside the loop but always takes the same arm for a given node, so the
// predictor eats it — unlike an interface or generic comparator, which
// would cost a non-inlinable call per probe.
func windowSearch(keys [][]byte, arena []byte, offs []uint32, pfx uint32, k []byte, lo, hi int, strict bool) int {
	// c < limit folds the lower/upper-bound distinction into the one
	// comparison already in the loop: limit 0 advances on c < 0 (first
	// >= k), limit 1 also advances on equality (first > k).
	limit := 0
	if strict {
		limit = 1
	}
	if offs == nil {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bytes.Compare(keys[mid], k) < limit {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(arena[offs[mid]+pfx:offs[mid+1]], k) < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
