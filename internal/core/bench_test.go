package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Micro-benchmarks for the in-node searches (flatnode.go). The flat-*
// variants run the arena leaf search with prefix-skip comparisons,
// route-* the suffix-word plane inner bases route through, and slice-* a
// binary search over a plain [][]byte (searchKeys, as frozenNode uses) as
// the per-key-pointer reference.

func benchKeySet(n int, prefix string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s%08d", prefix, i*7))
	}
	return keys
}

func BenchmarkBaseSearch(b *testing.B) {
	for _, size := range []int{128, 1024} {
		for _, prefix := range []string{"", "user:profile:v2:"} {
			keys := benchKeySet(size, prefix)
			flat := flatBaseFromKeys(keys)
			probes := make([][]byte, 64)
			for i := range probes {
				probes[i] = keys[(i*31)%len(keys)]
			}
			tag := fmt.Sprintf("n=%d,pfx=%d", size, len(prefix))
			b.Run("slice/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					searchKeys(keys, probes[i&63])
				}
			})
			b.Run("flat/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					flat.baseSearch(probes[i&63])
				}
			})
			// The same probes through the suffix-word routing search of a
			// flat inner base.
			inner := flatInnerFromKeys(keys, nil)
			b.Run("route/"+tag, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					inner.routeSearch(probes[i&63], true)
				}
			})
		}
	}
}

// BenchmarkDeepDescent measures consolidated lookups on a deliberately
// deep tree (fanout 64, leaf size 16 — 3+ inner levels at this
// population), so descent through the suffix-word routing plane
// dominates.
func BenchmarkDeepDescent(b *testing.B) {
	const n = 200_000
	keys := make([][]byte, n)
	for i := range keys {
		j := (i * 7919) % n // insertion order unrelated to sort order
		keys[i] = []byte(fmt.Sprintf("user%08d@bench.example.com......", j))
	}
	opts := DefaultOptions()
	opts.InnerNodeSize = 64
	opts.LeafNodeSize = 16
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i, k := range keys {
		s.Insert(k, uint64(i))
	}
	tr.ConsolidateAll()
	runtime.GC() // clear construction garbage before timing
	var out []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.Lookup(keys[i%n], out[:0])
	}
}
