package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// flatBaseFromKeys builds a leaf base node over keys for direct search
// testing.
func flatBaseFromKeys(keys [][]byte) *delta {
	n := newBaseNode(kLeafBase)
	n.size = int32(len(keys))
	n.arena, n.offs, n.pfx, n.nil0 = buildFlat(keys)
	return n
}

// flatInnerFromKeys builds an inner base node over keys, with its
// suffix-word plane, as setBaseKeys does.
func flatInnerFromKeys(keys [][]byte, kids []nodeID) *delta {
	n := newBaseNode(kInnerBase)
	n.size = int32(len(keys))
	n.kids = kids
	n.arena, n.offs, n.pfx, n.nil0 = buildFlat(keys)
	n.sfx = buildSuffixWords(keys, n.pfx)
	return n
}

func TestBuildFlat(t *testing.T) {
	cases := []struct {
		name string
		keys [][]byte
		pfx  uint32
		nil0 bool
	}{
		{"empty", nil, 0, false},
		{"single", [][]byte{[]byte("hello")}, 5, false},
		{"shared-prefix", [][]byte{[]byte("user123"), []byte("user456"), []byte("user789")}, 4, false},
		{"no-prefix", [][]byte{[]byte("alpha"), []byte("beta")}, 0, false},
		{"nil-separator", [][]byte{nil, []byte("m")}, 0, true},
		{"duplicates", [][]byte{[]byte("dup"), []byte("dup"), []byte("dup")}, 3, false},
		{"prefix-is-a-key", [][]byte{[]byte("ab"), []byte("abc"), []byte("abd")}, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := flatBaseFromKeys(tc.keys)
			if n.pfx != tc.pfx || n.nil0 != tc.nil0 {
				t.Fatalf("pfx=%d nil0=%t, want %d/%t", n.pfx, n.nil0, tc.pfx, tc.nil0)
			}
			if got := n.baseLen(); got != len(tc.keys) {
				t.Fatalf("baseLen=%d, want %d", got, len(tc.keys))
			}
			for i, k := range tc.keys {
				got := n.baseKey(i)
				if (got == nil) != (k == nil) || !bytes.Equal(got, k) {
					t.Fatalf("baseKey(%d)=%q (nil=%t), want %q (nil=%t)",
						i, got, got == nil, k, k == nil)
				}
			}
		})
	}
}

// refSearch is the linear reference for every in-node search: the first
// position in [lo, hi) whose key is >= k (> k when strict), or hi. A nil
// key compares as the empty string.
func refSearch(keys [][]byte, k []byte, lo, hi int, strict bool) int {
	limit := 0
	if strict {
		limit = 1
	}
	for lo < hi && bytes.Compare(keys[lo], k) < limit {
		lo++
	}
	return lo
}

// TestFlatSearchMatchesLinear drives the prefix-skip leaf search with
// random key sets and probes — including probes shorter than, equal to,
// and extending the common prefix — and demands the linear reference's
// (position, exact) result, over the full node and random windows.
func TestFlatSearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prefixes := []string{"", "k", "user:profile:", "aa"}
	for trial := 0; trial < 200; trial++ {
		pfx := prefixes[rng.Intn(len(prefixes))]
		n := rng.Intn(40) + 1
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("%s%03d", pfx, rng.Intn(500))] = true
		}
		var keys [][]byte
		for k := range set {
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		flat := flatBaseFromKeys(keys)

		probes := [][]byte{[]byte("0"), []byte("zzz"), []byte(pfx), []byte(pfx + "5")}
		if len(pfx) > 1 {
			probes = append(probes, []byte(pfx[:1]), []byte(pfx+"999999"))
		}
		for _, k := range keys {
			probes = append(probes, k, append(append([]byte(nil), k...), 0))
		}
		exactAt := func(pos int, p []byte) bool { return pos < len(keys) && bytes.Equal(keys[pos], p) }
		for _, p := range probes {
			if len(p) == 0 {
				continue
			}
			wantPos := refSearch(keys, p, 0, len(keys), false)
			gotPos, gotExact := flat.baseSearch(p)
			if gotPos != wantPos || gotExact != exactAt(wantPos, p) {
				t.Fatalf("pfx=%q keys=%d probe=%q: got (%d,%t), want (%d,%t)",
					pfx, len(keys), p, gotPos, gotExact, wantPos, exactAt(wantPos, p))
			}
			// Windowed search with a random valid window must agree too.
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			wp := refSearch(keys, p, lo, hi, false)
			gp, ge := flat.baseSearchRange(p, lo, hi)
			if gp != wp || ge != exactAt(wp, p) {
				t.Fatalf("pfx=%q probe=%q window [%d,%d): got (%d,%t), want (%d,%t)",
					pfx, p, lo, hi, gp, ge, wp, exactAt(wp, p))
			}
		}
	}
}

// TestFlatRouteChildren checks inner-node routing against hand-computed
// children for both bound kinds, including the nil -inf separator of a
// leftmost inner node: strict routing takes the largest separator <= the
// probe, the backward rule of Appendix C.2 the largest separator < it.
func TestFlatRouteChildren(t *testing.T) {
	keys := [][]byte{nil, []byte("e"), []byte("ee"), []byte("k"), []byte("r")}
	n := flatInnerFromKeys(keys, []nodeID{10, 20, 30, 40, 50})
	cases := []struct {
		probe       string
		strict, low nodeID
	}{
		{"a", 10, 10}, {"e", 20, 10}, {"e0", 20, 20}, {"ee", 30, 20},
		{"eee", 30, 30}, {"j", 30, 30}, {"k", 40, 30}, {"k1", 40, 40},
		{"q", 40, 40}, {"r", 50, 40}, {"z", 50, 50},
	}
	for _, c := range cases {
		k := []byte(c.probe)
		if got := routeBaseInner(n.baseData, k, true); got != c.strict {
			t.Errorf("routeBaseInner(%q, strict) = %d, want %d", c.probe, got, c.strict)
		}
		if got := routeBaseInner(n.baseData, k, false); got != c.low {
			t.Errorf("routeBaseInner(%q, left) = %d, want %d", c.probe, got, c.low)
		}
	}
}

// TestCheckSuffixWords pins the rule Validate applies to flat inner bases:
// one suffix word per key, packed as buildSuffixWords packs it. A base
// without its plane, or with a stale word, is rejected.
func TestCheckSuffixWords(t *testing.T) {
	keys := [][]byte{nil, []byte("sep:a"), []byte("sep:bbbbbbbbbb"), []byte("sep:c")}
	cases := []struct {
		name  string
		edit  func(n *delta)
		valid bool
	}{
		{"intact", func(n *delta) {}, true},
		{"no-plane", func(n *delta) { n.sfx = nil }, false},
		{"short-plane", func(n *delta) { n.sfx = n.sfx[:len(n.sfx)-1] }, false},
		{"stale-word", func(n *delta) { n.sfx[2]++ }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := flatInnerFromKeys(keys, []nodeID{1, 2, 3, 4})
			tc.edit(n)
			if err := checkSuffixWords(n); (err == nil) != tc.valid {
				t.Fatalf("checkSuffixWords = %v, want valid=%t", err, tc.valid)
			}
		})
	}
}

// TestFlatLayoutDifferential runs one random operation stream against a
// tree with tiny nodes (forcing splits, merges, and consolidations) and
// the map model, in unique and non-unique mode, over short keys and over
// keys behind a 29-byte shared prefix, so leaf and inner bases carry a
// long common prefix that every search skips.
func TestFlatLayoutDifferential(t *testing.T) {
	formats := []struct{ name, format string }{
		{"short", "key:%04d"},
		{"prefix29", "tenant/000042/rack/17/object/%04d"},
	}
	for _, nonUnique := range []bool{false, true} {
		for _, f := range formats {
			t.Run(fmt.Sprintf("nonUnique=%t/%s", nonUnique, f.name), func(t *testing.T) {
				opts := DefaultOptions()
				opts.NonUnique = nonUnique
				opts.LeafNodeSize = 16
				opts.InnerNodeSize = 8
				opts.LeafChainLength = 4
				opts.InnerChainLength = 2
				opts.LeafMergeSize = 4
				opts.InnerMergeSize = 2
				tr := New(opts)
				defer tr.Close()
				s := tr.NewSession()
				defer s.Release()
				fm := &fuzzModel{nonUnique: nonUnique, m: make(map[string]map[uint64]bool)}

				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 8000; op++ {
					k := []byte(fmt.Sprintf(f.format, rng.Intn(400)))
					ks := string(k)
					v := uint64(rng.Intn(4))
					switch rng.Intn(10) {
					case 0, 1, 2:
						if got, want := s.Insert(k, v), fm.insert(ks, v); got != want {
							t.Fatalf("op %d: Insert(%q,%d) = %t, model %t", op, k, v, got, want)
						}
					case 3:
						if got, want := s.Delete(k, v), fm.delete(ks, v); got != want {
							t.Fatalf("op %d: Delete(%q,%d) = %t, model %t", op, k, v, got, want)
						}
					case 4:
						if !nonUnique {
							want := len(fm.m[ks]) > 0
							if want {
								clear(fm.m[ks])
								fm.m[ks][v] = true
							}
							if got := s.Update(k, v); got != want {
								t.Fatalf("op %d: Update(%q,%d) = %t, model %t", op, k, v, got, want)
							}
						} else if set := fm.m[ks]; !set[v+1] {
							// The exact-pair update, on a pair whose
							// replacement is not already present.
							want := set[v]
							if want {
								fm.delete(ks, v)
								fm.insert(ks, v+1)
							}
							if got := s.UpdateValue(k, v, v+1); got != want {
								t.Fatalf("op %d: UpdateValue(%q,%d) = %t, model %t", op, k, v, got, want)
							}
						}
					case 5:
						checkLookup(t, fm, ks, s.Lookup(k, nil))
					default:
						checkScanExact(t, s, fm, k, rng.Intn(30)+1)
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("validate: %v", err)
				}
				checkScanExact(t, s, fm, []byte{0}, 1<<30)
			})
		}
	}
}

// checkScanExact verifies a scan of up to n pairs from start against the
// model: the visited keys, with multiplicity, must be exactly the model's
// first n in key order, and every visited pair must be a distinct model
// pair (value order within a key is unspecified).
func checkScanExact(t *testing.T, s *Session, fm *fuzzModel, start []byte, n int) {
	t.Helper()
	keys, _ := fm.pairs(string(start))
	var want []string
	for _, k := range keys {
		for range fm.m[k] {
			want = append(want, k)
		}
	}
	want = want[:min(n, len(want))]
	var got []string
	seen := make(map[string]bool)
	s.Scan(start, n, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		pk := fmt.Sprintf("%x/%d", k, v)
		if !fm.m[string(k)][v] || seen[pk] {
			t.Fatalf("Scan(%q,%d) visited (%q,%d): in model %t, seen before %t",
				start, n, k, v, fm.m[string(k)][v], seen[pk])
		}
		seen[pk] = true
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Scan(%q,%d) keys\ngot:  %q\nwant: %q", start, n, got, want)
	}
}

// TestFlatBulkLoad bulk-loads a tree and checks structure, content, and
// the footprint metrics.
func TestFlatBulkLoad(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	tr := New(opts)
	defer tr.Close()

	const n = 5000
	i := 0
	err := tr.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= n {
			return nil, 0, false
		}
		k := []byte(fmt.Sprintf("bulk:%06d", i))
		v := uint64(i)
		i++
		return k, v, true
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.NewSession()
	defer s.Release()
	for j := 0; j < n; j += 37 {
		k := []byte(fmt.Sprintf("bulk:%06d", j))
		got := s.Lookup(k, nil)
		if len(got) != 1 || got[0] != uint64(j) {
			t.Fatalf("Lookup(%q) = %v, want [%d]", k, got, j)
		}
	}
	st := tr.StructureStats()
	if st.InnerArenaBytes == 0 || st.InnerArenaBytes >= st.ArenaBytes {
		t.Errorf("InnerArenaBytes=%d out of range (ArenaBytes=%d)", st.InnerArenaBytes, st.ArenaBytes)
	}
	if st.ArenaBytes == 0 || st.KeyBytes == 0 || st.LeafBytesPerEntry == 0 {
		t.Errorf("footprint metrics missing: %+v", st)
	}
	// A bulk-loaded leaf carries arena, offsets, values and versions, and
	// takes its slab at its first delta.
	if st.GCPtrsPerLeaf != 4 {
		t.Errorf("unwritten: GCPtrsPerLeaf=%v, want 4", st.GCPtrsPerLeaf)
	}
	writeEveryLeaf(tr)
	if st := tr.StructureStats(); st.GCPtrsPerLeaf != 5 {
		t.Errorf("written: GCPtrsPerLeaf=%v, want 5", st.GCPtrsPerLeaf)
	}
}

// TestStructureStatsFootprint pins the pointer accounting on consolidated
// trees: a leaf carries 4 GC-visible payload pointers (arena, offsets,
// values, versions) however many keys it holds, and 5 once a delta has
// given it a slab; an inner base 4 or 5 (arena, offsets, suffix words,
// children, and a slab when it has one).
func TestStructureStatsFootprint(t *testing.T) {
	build := func(n int) (unwritten, written StructureStats) {
		tr := New(DefaultOptions())
		defer tr.Close()
		s := tr.NewSession()
		defer s.Release()
		for i := 0; i < n; i++ {
			s.Insert(key64(uint64(i)), uint64(i))
		}
		tr.ConsolidateAll()
		unwritten = tr.StructureStats()
		writeEveryLeaf(tr)
		return unwritten, tr.StructureStats()
	}
	small, smallW := build(50)
	if small.LeafNodes != 1 || small.GCPtrsPerLeaf != 4 || smallW.GCPtrsPerLeaf != 5 {
		t.Errorf("50 keys: %d leaves, GCPtrsPerLeaf=%v then %v written, want 1 leaf with 4 then 5",
			small.LeafNodes, small.GCPtrsPerLeaf, smallW.GCPtrsPerLeaf)
	}
	if small.KeyBytes != 50*8 {
		t.Errorf("KeyBytes=%d, want %d", small.KeyBytes, 50*8)
	}
	if small.MappingBytes <= 0 {
		t.Errorf("MappingBytes=%d, want the mapping table's spine and chunks", small.MappingBytes)
	}

	big, bigW := build(50_000)
	if big.GCPtrsPerLeaf != 4 || bigW.GCPtrsPerLeaf != 5 {
		t.Errorf("50k keys: GCPtrsPerLeaf=%v then %v written, want 4 then 5", big.GCPtrsPerLeaf, bigW.GCPtrsPerLeaf)
	}
	if big.InnerNodes == 0 || big.GCPtrsPerInner < 4 || big.GCPtrsPerInner > 5 {
		t.Errorf("50k keys: GCPtrsPerInner=%v over %d inner nodes, want 4..5", big.GCPtrsPerInner, big.InnerNodes)
	}
}

// TestLeafChainUnexpectedKind is the regression test for the stale
// fallback fixed in leaf.go: all four leaf replay loops must skip an
// unexpected record kind and fall through to the base search instead of
// reporting not-found, and must terminate on a baseless chain.
func TestLeafChainUnexpectedKind(t *testing.T) {
	// key64 keys share a 7-byte prefix, single letters none, so both arms
	// of the base search's prefix check run.
	formats := []struct {
		pfx uint32
		key func(i int) []byte
	}{
		{7, func(i int) []byte { return key64(uint64(i)) }},
		{0, func(i int) []byte { return []byte{byte('a' + i)} }},
	}
	for _, f := range formats {
		key := f.key
		t.Run(fmt.Sprintf("pfx=%d", f.pfx), func(t *testing.T) {
			tr := New(DefaultOptions())
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()
			for i := 0; i < 8; i++ {
				s.Insert(key(i), uint64(100+i))
			}
			tr.ConsolidateAll()

			root := tr.load(tr.root)
			leaf := tr.load(root.kids[0])
			if leaf.kind != kLeafBase {
				t.Fatalf("expected consolidated leaf base, got %v", leaf.kind)
			}
			// An inner-only kind can never legally appear in a leaf chain;
			// splice one in above the base.
			bogus := &delta{kind: kInnerInsert}
			bogus.inheritFrom(leaf)
			bogus.offset = -1

			if leaf.pfx != f.pfx {
				t.Fatalf("leaf pfx=%d, want %d", leaf.pfx, f.pfx)
			}
			k := key(3)
			if r := s.leafSeek(bogus, k); !r.found || r.value != 103 {
				t.Errorf("leafSeek through unexpected kind: %+v, want found value 103", r)
			}
			if vs, off := s.collectValues(bogus, k, nil); len(vs) != 1 || vs[0] != 103 || off < 0 {
				t.Errorf("collectValues through unexpected kind: %v off=%d", vs, off)
			}
			if r := s.leafSeekPair(bogus, k, 103); !r.found {
				t.Errorf("leafSeekPair through unexpected kind: %+v", r)
			}
			if r := s.leafSeekFirstVisible(bogus, k); !r.found || r.value != 103 {
				t.Errorf("leafSeekFirstVisible through unexpected kind: %+v", r)
			}

			// A baseless chain of unexpected records must terminate with
			// not-found and no offset.
			orphan := &delta{kind: kInnerInsert, isLeaf: true}
			if r := s.leafSeek(orphan, k); r.found || r.baseOff != -1 {
				t.Errorf("leafSeek on baseless chain: %+v", r)
			}
			if vs, off := s.collectValues(orphan, k, nil); len(vs) != 0 || off != -1 {
				t.Errorf("collectValues on baseless chain: %v off=%d", vs, off)
			}
			if r := s.leafSeekPair(orphan, k, 103); r.found || r.baseOff != -1 {
				t.Errorf("leafSeekPair on baseless chain: %+v", r)
			}
			if r := s.leafSeekFirstVisible(orphan, k); r.found || r.baseOff != -1 {
				t.Errorf("leafSeekFirstVisible on baseless chain: %+v", r)
			}
		})
	}
}

// TestFlatLookupNoAllocs pins the zero-allocation contract of the read
// path: unique-key lookups against consolidated bases must not allocate,
// one at a time or through LookupBatch.
func TestFlatLookupNoAllocs(t *testing.T) {
	opts := DefaultOptions()
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 4096
	for i := 0; i < n; i++ {
		s.Insert(key64(uint64(i)), uint64(i))
	}
	tr.ConsolidateAll()

	out := make([]uint64, 0, 4)
	k := make([]byte, 8)
	copy(k, key64(uint64(n/2)))
	avg := testing.AllocsPerRun(2000, func() {
		out = s.Lookup(k, out[:0])
	})
	if avg > 0.01 {
		t.Errorf("Lookup allocates %.3f per op on flat bases, want 0", avg)
	}

	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = key64(uint64(i * (n / len(batch))))
	}
	found := 0
	visit := func(i int, vals []uint64) { found += len(vals) }
	perBatch := testing.AllocsPerRun(200, func() {
		s.LookupBatch(batch, visit)
	})
	if perKey := perBatch / float64(len(batch)); perKey > 0.01 {
		t.Errorf("LookupBatch allocates %.3f per key on flat bases, want <= 0.01", perKey)
	}
	if found == 0 {
		t.Fatal("LookupBatch found none of the loaded keys")
	}
}
