package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func key64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// allConfigs enumerates option sets that exercise every optimization
// combination a test should survive.
func allConfigs() map[string]Options {
	def := DefaultOptions()
	base := BaselineOptions()
	noPA := def
	noPA.Preallocate = false
	noFC := def
	noFC.FastConsolidate = false
	noSS := def
	noSS.SearchShortcuts = false
	tiny := def
	tiny.LeafNodeSize = 8
	tiny.InnerNodeSize = 4
	tiny.LeafChainLength = 4
	tiny.InnerChainLength = 2
	tiny.LeafMergeSize = 2
	tiny.InnerMergeSize = 2
	return map[string]Options{
		"default":           def,
		"baseline":          base,
		"noPrealloc":        noPA,
		"noFastConsolidate": noFC,
		"noShortcuts":       noSS,
		"tinyNodes":         tiny,
	}
}

func TestInsertLookup(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()

			const n = 5000
			for i := uint64(0); i < n; i++ {
				if !s.Insert(key64(i*2), i) {
					t.Fatalf("insert %d failed", i)
				}
			}
			for i := uint64(0); i < n; i++ {
				got := s.Lookup(key64(i*2), nil)
				if len(got) != 1 || got[0] != i {
					t.Fatalf("lookup %d: got %v want [%d]", i, got, i)
				}
				if got := s.Lookup(key64(i*2+1), nil); len(got) != 0 {
					t.Fatalf("lookup absent %d: got %v", i*2+1, got)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
		})
	}
}

func TestInsertDuplicateKeyFails(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	if !s.Insert([]byte("a"), 1) {
		t.Fatal("first insert failed")
	}
	if s.Insert([]byte("a"), 2) {
		t.Fatal("duplicate insert succeeded in unique mode")
	}
	got := s.Lookup([]byte("a"), nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestDelete(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()

			const n = 3000
			for i := uint64(0); i < n; i++ {
				s.Insert(key64(i), i)
			}
			// Delete odd keys.
			for i := uint64(1); i < n; i += 2 {
				if !s.Delete(key64(i), 0) {
					t.Fatalf("delete %d failed", i)
				}
			}
			for i := uint64(0); i < n; i++ {
				got := s.Lookup(key64(i), nil)
				if i%2 == 0 {
					if len(got) != 1 || got[0] != i {
						t.Fatalf("lookup %d: got %v", i, got)
					}
				} else if len(got) != 0 {
					t.Fatalf("deleted key %d still visible: %v", i, got)
				}
			}
			if s.Delete(key64(1), 0) {
				t.Fatal("double delete succeeded")
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
		})
	}
}

func TestUpdate(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	const n = 2000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	for i := uint64(0); i < n; i++ {
		if !s.Update(key64(i), i+1000) {
			t.Fatalf("update %d failed", i)
		}
	}
	if s.Update(key64(n+5), 1) {
		t.Fatal("update of absent key succeeded")
	}
	for i := uint64(0); i < n; i++ {
		got := s.Lookup(key64(i), nil)
		if len(got) != 1 || got[0] != i+1000 {
			t.Fatalf("lookup %d after update: got %v", i, got)
		}
	}
}

func TestRandomModel(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()

			rng := rand.New(rand.NewSource(42))
			model := make(map[uint64]uint64)
			const ops = 20000
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(2000)) + 1
				switch rng.Intn(4) {
				case 0: // insert
					_, exists := model[k]
					got := s.Insert(key64(k), k*10)
					if got == exists {
						t.Fatalf("op %d: insert %d returned %v, model exists=%v", i, k, got, exists)
					}
					if !exists {
						model[k] = k * 10
					}
				case 1: // delete
					_, exists := model[k]
					got := s.Delete(key64(k), 0)
					if got != exists {
						t.Fatalf("op %d: delete %d returned %v, model exists=%v", i, k, got, exists)
					}
					delete(model, k)
				case 2: // update
					_, exists := model[k]
					v := uint64(rng.Int63())
					got := s.Update(key64(k), v)
					if got != exists {
						t.Fatalf("op %d: update %d returned %v, model exists=%v", i, k, got, exists)
					}
					if exists {
						model[k] = v
					}
				default: // lookup
					want, exists := model[k]
					got := s.Lookup(key64(k), nil)
					if exists && (len(got) != 1 || got[0] != want) {
						t.Fatalf("op %d: lookup %d got %v want %d", i, k, got, want)
					}
					if !exists && len(got) != 0 {
						t.Fatalf("op %d: lookup %d got %v want empty", i, k, got)
					}
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("validate: %v\n%s", err, tr.Dump())
			}
			if got := tr.Count(); got != len(model) {
				t.Fatalf("count %d, model %d", got, len(model))
			}
		})
	}
}

func TestIteratorForward(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	const n = 4000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		s.Insert(key64(uint64(i)+1), uint64(i))
	}
	it := s.NewIterator()
	count := 0
	for it.SeekFirst(); it.Valid(); it.Next() {
		want := uint64(count) + 1
		if got := binary.BigEndian.Uint64(it.Key()); got != want {
			t.Fatalf("position %d: key %d want %d", count, got, want)
		}
		if it.Value() != uint64(count) {
			t.Fatalf("position %d: value %d", count, it.Value())
		}
		count++
	}
	if count != n {
		t.Fatalf("visited %d items, want %d", count, n)
	}
}

func TestIteratorBackward(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	const n = 4000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i+1), i)
	}
	it := s.NewIterator()
	count := 0
	for it.SeekToLast(); it.Valid(); it.Prev() {
		want := uint64(n - count)
		if got := binary.BigEndian.Uint64(it.Key()); got != want {
			t.Fatalf("position %d: key %d want %d", count, got, want)
		}
		count++
	}
	if count != n {
		t.Fatalf("visited %d items, want %d", count, n)
	}
}

func TestScan(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	for i := uint64(0); i < 1000; i++ {
		s.Insert(key64(i*2), i)
	}
	var got []uint64
	n := s.Scan(key64(100), 10, func(k []byte, v uint64) bool {
		got = append(got, binary.BigEndian.Uint64(k))
		return true
	})
	if n != 10 || len(got) != 10 {
		t.Fatalf("scan returned %d items", n)
	}
	for i, k := range got {
		if want := uint64(100 + i*2); k != want {
			t.Fatalf("scan item %d: key %d want %d", i, k, want)
		}
	}
	// Scan from between keys starts at the next key.
	n = s.Scan(key64(101), 1, func(k []byte, v uint64) bool {
		if binary.BigEndian.Uint64(k) != 102 {
			t.Fatalf("scan from 101 visited %d", binary.BigEndian.Uint64(k))
		}
		return true
	})
	if n != 1 {
		t.Fatalf("scan visited %d", n)
	}
}

func TestNonUnique(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	k := []byte("dup")
	for v := uint64(1); v <= 20; v++ {
		if !s.Insert(k, v) {
			t.Fatalf("insert value %d failed", v)
		}
	}
	if s.Insert(k, 7) {
		t.Fatal("duplicate pair insert succeeded")
	}
	got := s.Lookup(k, nil)
	if len(got) != 20 {
		t.Fatalf("lookup returned %d values: %v", len(got), got)
	}
	seen := map[uint64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate value %d in result", v)
		}
		seen[v] = true
	}
	// Delete a specific pair.
	if !s.Delete(k, 7) {
		t.Fatal("delete pair failed")
	}
	if s.Delete(k, 7) {
		t.Fatal("double delete pair succeeded")
	}
	if got := s.Lookup(k, nil); len(got) != 19 || containsVal(got, 7) {
		t.Fatalf("after delete: %v", got)
	}
	// Re-insert the deleted value.
	if !s.Insert(k, 7) {
		t.Fatal("re-insert failed")
	}
	if got := s.Lookup(k, nil); len(got) != 20 {
		t.Fatalf("after re-insert: %v", got)
	}
}

func TestNonUniqueManyKeys(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	opts.LeafNodeSize = 32
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	const keys, dups = 300, 5
	for i := uint64(0); i < keys; i++ {
		for d := uint64(0); d < dups; d++ {
			if !s.Insert(key64(i), d) {
				t.Fatalf("insert (%d,%d) failed", i, d)
			}
		}
	}
	for i := uint64(0); i < keys; i++ {
		got := s.Lookup(key64(i), nil)
		if len(got) != dups {
			t.Fatalf("key %d: %d values: %v", i, len(got), got)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestEmptyKeyPanics(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty key")
		}
	}()
	s.Insert(nil, 1)
}

func TestMergeShrinksTree(t *testing.T) {
	opts := DefaultOptions()
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

	const n = 4000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	grown := tr.StructureStats()
	for i := uint64(0); i < n; i++ {
		if !s.Delete(key64(i), 0) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate after drain: %v", err)
	}
	if got := tr.Count(); got != 0 {
		t.Fatalf("count after drain: %d", got)
	}
	shrunk := tr.StructureStats()
	if shrunk.LeafNodes >= grown.LeafNodes/2 {
		t.Fatalf("merging did not shrink the tree: %d -> %d leaves", grown.LeafNodes, shrunk.LeafNodes)
	}
	if shrunk.InnerNodes >= grown.InnerNodes {
		t.Fatalf("inner nodes did not merge: %d -> %d", grown.InnerNodes, shrunk.InnerNodes)
	}
	if tr.Stats().Merges == 0 {
		t.Fatal("no merges recorded")
	}
	// The tree must remain fully usable after heavy merging.
	for i := uint64(0); i < 500; i++ {
		if !s.Insert(key64(i), i) {
			t.Fatalf("re-insert %d failed", i)
		}
	}
	if got := tr.Count(); got != 500 {
		t.Fatalf("count after refill: %d", got)
	}
}

func TestStructureStats(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	for i := uint64(0); i < 50000; i++ {
		s.Insert(key64(i), i)
	}
	st := tr.StructureStats()
	if st.LeafNodes == 0 || st.InnerNodes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Height < 2 {
		t.Fatalf("height %d", st.Height)
	}
	if st.AvgLeafNodeSize <= 0 || st.AvgLeafNodeSize > float64(DefaultOptions().LeafNodeSize) {
		t.Fatalf("avg leaf size %f", st.AvgLeafNodeSize)
	}
	// Monotonic inserts should utilize retired slabs heavily (the paper
	// reports ~100% LPU for Mono-Int).
	if u := tr.Stats().LeafPreallocUtilization(); u < 0.5 {
		t.Fatalf("leaf prealloc utilization %f", u)
	}
}

func TestConsolidateAllAndFreeze(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i*3)
	}
	tr.ConsolidateAll()
	st := tr.StructureStats()
	if st.AvgLeafChainLen != 0 || st.AvgInnerChainLen != 0 {
		t.Fatalf("chains remain after ConsolidateAll: %+v", st)
	}
	f := tr.Freeze()
	for i := uint64(0); i < n; i++ {
		v, ok := f.Lookup(key64(i))
		if !ok || v != i*3 {
			t.Fatalf("frozen lookup %d: %d %v", i, v, ok)
		}
	}
	if _, ok := f.Lookup(key64(n + 1)); ok {
		t.Fatal("frozen lookup found absent key")
	}
}

func TestInPlaceLeafUpdates(t *testing.T) {
	opts := DefaultOptions()
	opts.InPlaceLeafUpdates = true
	opts.UnsafeNoCAS = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if !s.Insert(key64(i), i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		got := s.Lookup(key64(i), nil)
		if len(got) != 1 || got[0] != i {
			t.Fatalf("lookup %d: %v", i, got)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		if !s.Delete(key64(i), 0) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if got := tr.Count(); got != n/2 {
		t.Fatalf("count %d", got)
	}
}

// TestInPlaceLeafUpdatesArena drives the Fig. 18 in-place mode, which
// edits a leaf's key arena directly, with keys in random order behind a
// shared prefix plus keys that sort below, inside and above that prefix,
// and with deletes, including one that empties every leaf before the
// outliers go back in. Every result is checked against a map model, then
// the tree against Validate and a full scan, which reads private
// iterator copies. The "batch" case sends each run of inserts or deletes
// through InsertBatch or DeleteBatch, which carry a cached leaf from one
// key to the next.
func TestInPlaceLeafUpdatesArena(t *testing.T) {
	for _, batched := range []bool{false, true} {
		name := "single"
		if batched {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) { testInPlaceLeafUpdatesArena(t, batched) })
	}
}

func testInPlaceLeafUpdatesArena(t *testing.T, batched bool) {
	opts := DefaultOptions()
	opts.InPlaceLeafUpdates = true
	opts.UnsafeNoCAS = true
	opts.LeafNodeSize = 32
	opts.InnerNodeSize = 8
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	var keys []string
	for i := 0; i < 240; i++ {
		keys = append(keys, fmt.Sprintf("tenant/0042/obj%03d", i))
	}
	outliers := []string{"a", "tenant/0041/x", "tenant/0042/", "tenant/0042/obj", "tenant/0042/obj1", "tenant/0043", "zz"}
	rng := rand.New(rand.NewSource(42))
	model := map[string]uint64{}
	// write inserts (or, with del, deletes) ks in order, singly or as one
	// batch, and checks each result against the model applied in order.
	write := func(del bool, ks []string) {
		bk := make([][]byte, len(ks))
		vals := make([]uint64, len(ks))
		for i, k := range ks {
			bk[i], vals[i] = []byte(k), rng.Uint64()
		}
		var got []bool
		switch {
		case batched && del:
			got = s.DeleteBatch(bk, vals, nil)
		case batched:
			got = s.InsertBatch(bk, vals, nil)
		default:
			for i := range bk {
				if del {
					got = append(got, s.Delete(bk[i], 0))
				} else {
					got = append(got, s.Insert(bk[i], vals[i]))
				}
			}
		}
		for i, k := range ks {
			_, present := model[k]
			if del {
				if got[i] != present {
					t.Fatalf("Delete(%q) = %t with key present=%t", k, got[i], present)
				}
				delete(model, k)
				continue
			}
			if got[i] == present {
				t.Fatalf("Insert(%q) = %t with key present=%t", k, got[i], present)
			}
			if !present {
				model[k] = vals[i]
			}
		}
	}
	check := func(phase string) {
		for _, k := range append(keys, outliers...) {
			got := s.Lookup([]byte(k), nil)
			if v, ok := model[k]; ok != (len(got) == 1) || ok && got[0] != v {
				t.Fatalf("%s: Lookup(%q) = %v, model %d (present %t)", phase, k, got, v, ok)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", phase, err)
		}
		if got := tr.Count(); got != len(model) {
			t.Fatalf("%s: Count = %d, model %d", phase, got, len(model))
		}
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		s.Scan([]byte{0}, 1<<30, func(k []byte, v uint64) bool {
			if model[string(k)] != v {
				t.Fatalf("%s: scan (%q, %d), model %d", phase, k, v, model[string(k)])
			}
			got = append(got, string(k))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: scan keys\ngot:  %q\nwant: %q", phase, got, want)
		}
	}

	// Random-order loads split leaves into bases with a long prefix.
	var load []string
	for _, i := range rng.Perm(len(keys)) {
		load = append(load, keys[i])
	}
	write(false, load)
	check("load")
	// Outliers land in those bases and must shrink their prefix. Each run
	// of consecutive inserts or deletes is written as one call.
	all := append(append([]string(nil), keys...), outliers...)
	var run []string
	runDel := false
	for op := 0; op < 4000; op++ {
		k := all[rng.Intn(len(all))]
		del := rng.Intn(3) == 0
		if del != runDel && len(run) > 0 {
			write(runDel, run)
			run = run[:0]
		}
		run, runDel = append(run, k), del
	}
	write(runDel, run)
	check("mixed")
	write(true, all)
	check("emptied")
	var refill []string
	for _, i := range rng.Perm(len(outliers)) {
		refill = append(refill, outliers[i])
	}
	write(false, refill)
	check("refilled")
}

func TestStringKeys(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user%06d@example.com", i*7%2000)))
	}
	for i, k := range keys {
		if !s.Insert(k, uint64(i)) {
			t.Fatalf("insert %q failed", k)
		}
	}
	for i, k := range keys {
		got := s.Lookup(k, nil)
		if len(got) != 1 || got[0] != uint64(i) {
			t.Fatalf("lookup %q: %v", k, got)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
