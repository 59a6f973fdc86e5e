package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the inner-node arena layout (Options.FlatInnerNodes): the
// suffix-word routing search and the scan-pipelining prefetch.

// TestWindowSearchDifferential is the search differential: for random key
// sets (with and without shared prefixes, with and without a leading nil
// -inf separator) the slice path and the flat leaf search must return the
// same position for every (lo, hi) window and probe, and the suffix-word
// routing search the same position as the slice path for both bound kinds
// — including probes shorter than the node's common prefix and probes
// outside the key range.
func TestWindowSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	// The longer prefixes drive the prefix pre-check and leave short
	// suffixes whose first 8 bytes collide often (word-tie fallback); the
	// empty prefix drives the no-pre-check arm.
	prefixes := []string{"", "x", "sep:inner:v1:", "tenant/000042/rack/17/object/"}
	for trial := 0; trial < 120; trial++ {
		pfx := prefixes[rng.Intn(len(prefixes))]
		n := rng.Intn(24) + 1
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("%s%03d", pfx, rng.Intn(300))] = true
		}
		var keys [][]byte
		for k := range set {
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		if trial%3 == 0 {
			// Leftmost inner base: -inf separator first, which forces
			// pfx = 0 and exercises the nil0 path.
			keys = append([][]byte{nil}, keys...)
		}

		leafD := flatBaseFromKeys(keys)
		innerD := flatInnerFromKeys(keys, nil)

		probes := [][]byte{[]byte("0"), []byte("zzzz"), []byte(pfx + "150")}
		if len(pfx) > 1 {
			// Shorter than, exactly, and extending the common prefix.
			probes = append(probes, []byte(pfx[:1]), []byte(pfx), []byte(pfx+"~"))
		}
		for _, k := range keys {
			if k == nil {
				continue
			}
			probes = append(probes, k, append(append([]byte(nil), k...), 0))
		}
		for _, p := range probes {
			if len(p) == 0 {
				continue
			}
			for lo := 0; lo <= len(keys); lo++ {
				for hi := lo; hi <= len(keys); hi++ {
					want := windowSearch(keys, nil, nil, 0, p, lo, hi, false)
					if got, _ := leafD.flatSearch(p, lo, hi); got != want {
						t.Fatalf("pfx=%q n=%d probe=%q window [%d,%d): slice %d, flat %d",
							pfx, len(keys), p, lo, hi, want, got)
					}
				}
			}
			// routeSearch is the full-window routing probe; exact-key and
			// key+\x00 probes force word ties, exercising the arena
			// fallback.
			for _, strict := range []bool{false, true} {
				want := windowSearch(keys, nil, nil, 0, p, 0, len(keys), strict)
				if got := innerD.routeSearch(p, strict); got != want {
					t.Fatalf("pfx=%q n=%d probe=%q strict=%t: routeSearch %d, slice %d",
						pfx, len(keys), p, strict, got, want)
				}
			}
		}
	}
}

// TestScanPipelining checks the sibling prefetch end to end: a multi-leaf
// scan with ScanPipelining on visits exactly the same sequence as with it
// off, under both base layouts, and full scans cross enough leaves that
// prefetchRight ran against real siblings.
func TestScanPipelining(t *testing.T) {
	for _, flat := range []bool{true, false} {
		t.Run(fmt.Sprintf("flat=%t", flat), func(t *testing.T) {
			mk := func(pipeline bool) *Tree {
				opts := DefaultOptions()
				opts.FlatBaseNodes = flat
				opts.FlatInnerNodes = flat
				opts.ScanPipelining = pipeline
				opts.LeafNodeSize = 16
				opts.InnerNodeSize = 8
				tr := New(opts)
				s := tr.NewSession()
				defer s.Release()
				for i := 0; i < 2000; i++ {
					s.Insert([]byte(fmt.Sprintf("scan:%05d", i*3)), uint64(i))
				}
				tr.ConsolidateAll()
				return tr
			}
			on := mk(true)
			defer on.Close()
			off := mk(false)
			defer off.Close()

			collect := func(tr *Tree) []string {
				s := tr.NewSession()
				defer s.Release()
				var got []string
				s.Scan([]byte("scan:"), 1<<30, func(k []byte, v uint64) bool {
					got = append(got, fmt.Sprintf("%s=%d", k, v))
					return true
				})
				return got
			}
			a, b := collect(on), collect(off)
			if len(a) != 2000 || len(b) != 2000 {
				t.Fatalf("scan lengths: pipelined %d, plain %d, want 2000", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("item %d: pipelined %q, plain %q", i, a[i], b[i])
				}
			}
		})
	}
}
