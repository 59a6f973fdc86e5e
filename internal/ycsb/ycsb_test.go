package ycsb

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	const n = 1000
	z := NewZipfian(n, 7)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= n {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	// Zipfian(0.99): rank 0 should dominate; the top 10 ranks together
	// should hold a large share.
	if counts[0] < counts[1] {
		t.Fatalf("rank 0 (%d) below rank 1 (%d)", counts[0], counts[1])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if share := float64(top10) / draws; share < 0.3 {
		t.Fatalf("top-10 share %.3f, expected heavy skew", share)
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	const n = 1000
	s := NewScrambledZipfian(n, 7)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v >= n {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	// The two hottest keys must not be adjacent (scrambling property).
	var hot1, hot2 uint64
	for k, c := range counts {
		if c > counts[hot1] {
			hot1, hot2 = k, hot1
		} else if c > counts[hot2] {
			hot2 = k
		}
	}
	if d := int64(hot1) - int64(hot2); d == 1 || d == -1 {
		t.Fatalf("hottest keys adjacent: %d, %d", hot1, hot2)
	}
}

func TestKeySetsDistinctAndSized(t *testing.T) {
	for _, kt := range []KeyType{MonoInt, RandInt, Email} {
		t.Run(kt.String(), func(t *testing.T) {
			const n = 20000
			ks := NewKeySet(kt, n)
			if len(ks.Keys) != n {
				t.Fatalf("%d keys", len(ks.Keys))
			}
			seen := make(map[string]bool, n)
			for _, k := range ks.Keys {
				if seen[string(k)] {
					t.Fatalf("duplicate key %q", k)
				}
				seen[string(k)] = true
				if kt == Email && len(k) != 32 {
					t.Fatalf("email key length %d", len(k))
				}
				if kt != Email && len(k) != 8 {
					t.Fatalf("int key length %d", len(k))
				}
			}
		})
	}
}

func TestMonoIntKeysSorted(t *testing.T) {
	ks := NewKeySet(MonoInt, 1000)
	for i := 1; i < len(ks.Keys); i++ {
		if bytes.Compare(ks.Keys[i-1], ks.Keys[i]) >= 0 {
			t.Fatalf("mono keys not increasing at %d", i)
		}
	}
}

func TestExtraKeysDoNotCollide(t *testing.T) {
	for _, kt := range []KeyType{MonoInt, RandInt} {
		ks := NewKeySet(kt, 5000)
		seen := make(map[string]bool)
		for _, k := range ks.Keys {
			seen[string(k)] = true
		}
		for i := 0; i < 5000; i++ {
			k := ks.ExtraKey()
			if seen[string(k)] {
				t.Fatalf("%v extra key %q collides", kt, k)
			}
			seen[string(k)] = true
		}
	}
}

func TestHCKeysMonotonePerWorkerAndDistinct(t *testing.T) {
	ks := NewKeySet(MonoHC, 0)
	seen := make(map[string]bool)
	var prev []byte
	for i := 0; i < 10000; i++ {
		k := ks.HCKey(i % 8)
		if seen[string(k)] {
			t.Fatalf("duplicate HC key at %d", i)
		}
		seen[string(k)] = true
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("HC keys not globally increasing at %d", i)
		}
		prev = k
	}
}

func TestLoadStreamDealsEveryKeyOnce(t *testing.T) {
	const n = 10000
	ks := NewKeySet(RandInt, n)
	streams := []*Stream{
		NewStream(InsertOnly, ks, 0, 1),
		NewStream(InsertOnly, ks, 1, 2),
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		op := streams[i%2].Next()
		if op.Kind != OpInsert {
			t.Fatalf("load op kind %v", op.Kind)
		}
		if seen[string(op.Key)] {
			t.Fatalf("key dealt twice")
		}
		seen[string(op.Key)] = true
	}
	for _, k := range ks.Keys {
		if !seen[string(k)] {
			t.Fatalf("population key %q never dealt", k)
		}
	}
}

func TestWorkloadMixes(t *testing.T) {
	const n = 200000
	ks := NewKeySet(RandInt, 10000)
	type mix struct{ read, update, insert, scan float64 }
	cases := map[Workload]mix{
		ReadOnly:   {read: 1},
		ReadUpdate: {read: 0.5, update: 0.5},
		ScanInsert: {scan: 0.95, insert: 0.05},
	}
	for w, want := range cases {
		s := NewStream(w, ks, 0, 99)
		var got mix
		scanLenSum := 0
		for i := 0; i < n; i++ {
			op := s.Next()
			switch op.Kind {
			case OpRead:
				got.read++
			case OpUpdate:
				got.update++
			case OpInsert:
				got.insert++
			case OpScan:
				got.scan++
				scanLenSum += op.ScanLen
				if op.ScanLen < 1 || op.ScanLen > maxScanLen {
					t.Fatalf("scan length %d", op.ScanLen)
				}
			}
		}
		check := func(name string, got, want float64) {
			if math.Abs(got/n-want) > 0.01 {
				t.Fatalf("%v: %s fraction %.3f want %.2f", w, name, got/n, want)
			}
		}
		check("read", got.read, want.read)
		check("update", got.update, want.update)
		check("insert", got.insert, want.insert)
		check("scan", got.scan, want.scan)
		if w == ScanInsert {
			avg := float64(scanLenSum) / got.scan
			if avg < 40 || avg < 0 || avg > 56 {
				t.Fatalf("average scan length %.1f, paper reports ~48", avg)
			}
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFnv64Injective(t *testing.T) {
	// Spot-check the scrambler has no collisions over a dense range.
	seen := make(map[uint64]uint64, 1<<16)
	for v := uint64(0); v < 1<<16; v++ {
		h := fnv64(v)
		if prev, dup := seen[h]; dup {
			t.Fatalf("fnv64 collision: %d and %d", prev, v)
		}
		seen[h] = v
	}
}
