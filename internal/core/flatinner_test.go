package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestSearchDifferential is the search differential: for random key sets
// (with and without shared prefixes, with and without a leading nil -inf
// separator) the leaf search must return the linear reference's position
// for every (lo, hi) window and probe, and the suffix-word routing search
// the reference's position for both bound kinds — including probes
// shorter than the node's common prefix and probes outside the key range.
func TestSearchDifferential(t *testing.T) {
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
					want := refSearch(keys, p, lo, hi, false)
					if got, _ := leafD.baseSearchRange(p, lo, hi); got != want {
						t.Fatalf("pfx=%q n=%d probe=%q window [%d,%d): reference %d, got %d",
							pfx, len(keys), p, lo, hi, want, got)
					}
				}
			}
			// routeSearch is the full-window routing probe; exact-key and
			// key+\x00 probes force word ties, exercising the arena
			// fallback.
			for _, strict := range []bool{false, true} {
				want := refSearch(keys, p, 0, len(keys), strict)
				if got := innerD.routeSearch(p, strict); got != want {
					t.Fatalf("pfx=%q n=%d probe=%q strict=%t: routeSearch %d, reference %d",
						pfx, len(keys), p, strict, got, want)
				}
			}
		}
	}
}
