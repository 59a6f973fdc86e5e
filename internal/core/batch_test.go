package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func batchKey(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

// TestBatchBasic exercises the batched entry points against their
// single-op equivalents on one session: results must land under the
// caller's original indices despite the internal sort, and duplicate
// keys inside one batch must resolve in submission order.
func TestBatchBasic(t *testing.T) {
	for _, gc := range []GCScheme{GCDecentralized, GCCentralized} {
		t.Run(fmt.Sprint(gc), func(t *testing.T) {
			opts := DefaultOptions()
			opts.GC = gc
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			defer s.Release()

			const n = 10_000
			rng := rand.New(rand.NewSource(42))
			keys := make([][]byte, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = batchKey(uint64(rng.Intn(n / 2))) // ~50% duplicates
				vals[i] = uint64(i)
			}
			ok := s.InsertBatch(keys, vals, nil)
			// First submission of each key wins; later duplicates fail.
			seen := make(map[string]uint64, n)
			for i, k := range keys {
				_, dup := seen[string(k)]
				if ok[i] == dup {
					t.Fatalf("InsertBatch[%d] ok=%v, want %v", i, ok[i], !dup)
				}
				if !dup {
					seen[string(k)] = vals[i]
				}
			}

			// LookupBatch must report every present key exactly once, under
			// its original index, with the winning value.
			lk := make([][]byte, 0, n)
			for i := 0; i < n/2+100; i++ { // include some misses
				lk = append(lk, batchKey(uint64(i)))
			}
			visited := make(map[int]bool, len(lk))
			s.LookupBatch(lk, func(i int, got []uint64) {
				if visited[i] {
					t.Fatalf("LookupBatch visited index %d twice", i)
				}
				visited[i] = true
				want, present := seen[string(lk[i])]
				if present != (len(got) == 1) || (present && got[0] != want) {
					t.Fatalf("LookupBatch[%d] = %v, want present=%v val=%d", i, got, present, want)
				}
			})
			if len(visited) != len(lk) {
				t.Fatalf("LookupBatch visited %d of %d keys", len(visited), len(lk))
			}

			// DeleteBatch: delete everything once (duplicates in the batch
			// fail after the first occurrence deletes the key).
			ok = s.DeleteBatch(keys, vals, ok)
			gone := make(map[string]bool, n)
			for i, k := range keys {
				if ok[i] == gone[string(k)] {
					t.Fatalf("DeleteBatch[%d] ok=%v, want %v", i, ok[i], !gone[string(k)])
				}
				gone[string(k)] = true
			}
			if got := s.Lookup(keys[0], nil); len(got) != 0 {
				t.Fatalf("key survived DeleteBatch: %v", got)
			}

			st := tr.Stats()
			if st.BatchLeafHits == 0 {
				t.Fatal("sorted batches produced zero leaf-cache hits")
			}
		})
	}
}

// TestBatchRestartDescendsFromRoot pins the restart rule (§2.2): a
// batched insert that loses its leaf CaS re-descends from the root rather
// than retrying on the leaf it cached from the previous key. Two keys
// share one leaf, so the second key's first attempt is the batch's only
// leaf-cache hit; a retry through the cache would count a second.
func TestBatchRestartDescendsFromRoot(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	keys := [][]byte{batchKey(1), batchKey(2)}
	failed := false
	withCASFailures(t, func(id nodeID, o, n *delta) bool {
		if !failed && n.kind == kLeafInsert && bytes.Equal(n.key, keys[1]) {
			failed = true
			return true
		}
		return false
	})
	ok := s.InsertBatch(keys, []uint64{1, 2}, nil)
	if !ok[0] || !ok[1] || !failed {
		t.Fatalf("InsertBatch = %v, injected failure %t", ok, failed)
	}
	if hits := tr.Stats().BatchLeafHits; hits != 1 {
		t.Fatalf("BatchLeafHits = %d, want 1: the restart reused the cached leaf", hits)
	}
}

// TestBatchNonUnique pins batched semantics under multi-value keys: exact
// (key, value) pair matching for insert/delete and full value sets from
// LookupBatch.
func TestBatchNonUnique(t *testing.T) {
	opts := DefaultOptions()
	opts.NonUnique = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	const keys = 300
	var ks [][]byte
	var vs []uint64
	for i := 0; i < keys; i++ {
		for v := 0; v < 3; v++ {
			ks = append(ks, batchKey(uint64(i)))
			vs = append(vs, uint64(v))
		}
	}
	ok := s.InsertBatch(ks, vs, nil)
	for i, o := range ok {
		if !o {
			t.Fatalf("InsertBatch[%d] failed", i)
		}
	}
	if ok := s.InsertBatch(ks[:1], vs[:1], ok); ok[0] {
		t.Fatal("re-inserting an existing pair succeeded")
	}
	s.LookupBatch(ks[:3], func(i int, got []uint64) {
		if len(got) != 3 {
			t.Fatalf("LookupBatch[%d]: %d values, want 3", i, len(got))
		}
	})
	// Delete value 1 of every key; the other two survive.
	var dk [][]byte
	var dv []uint64
	for i := 0; i < keys; i++ {
		dk = append(dk, batchKey(uint64(i)))
		dv = append(dv, 1)
	}
	ok = s.DeleteBatch(dk, dv, ok)
	for i, o := range ok {
		if !o {
			t.Fatalf("DeleteBatch[%d] failed", i)
		}
	}
	got := s.Lookup(batchKey(0), nil)
	if len(got) != 2 {
		t.Fatalf("after pair delete: %v, want 2 values", got)
	}
}

// TestBatchConcurrent runs batched writers and readers against
// single-op sessions on the same tree; run under -race this checks the
// shared traversal caching publishes through the same synchronization as
// the single-op path.
func TestBatchConcurrent(t *testing.T) {
	opts := DefaultOptions()
	tr := New(opts)
	defer tr.Close()

	const (
		workers = 4
		rounds  = 30
		batch   = 256
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			keys := make([][]byte, batch)
			vals := make([]uint64, batch)
			var ok []bool
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = batchKey(uint64(rng.Intn(4096)))
					vals[i] = uint64(w)
				}
				switch r % 3 {
				case 0:
					ok = s.InsertBatch(keys, vals, ok)
				case 1:
					s.LookupBatch(keys, func(i int, got []uint64) {
						if len(got) > 1 {
							t.Errorf("unique lookup returned %d values", len(got))
						}
					})
				case 2:
					ok = s.DeleteBatch(keys, vals, ok)
				}
			}
		}(w)
	}
	// A single-op mutator runs alongside to force splits/merges under the
	// batched traversals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := tr.NewSession()
		defer s.Release()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < workers*rounds*batch/4; i++ {
			k := batchKey(uint64(rng.Intn(4096)))
			if i%2 == 0 {
				s.Insert(k, 7)
			} else {
				s.Delete(k, 7)
			}
		}
	}()
	wg.Wait()
}

// TestBatchEpochRefresh drives one batch well past batchEpochRefresh so
// the mid-batch Exit/Enter + cache-invalidation path executes.
func TestBatchEpochRefresh(t *testing.T) {
	opts := DefaultOptions()
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	n := batchEpochRefresh*2 + 123
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = batchKey(uint64(i))
		vals[i] = uint64(i)
	}
	ok := s.InsertBatch(keys, vals, nil)
	for i, o := range ok {
		if !o {
			t.Fatalf("insert %d failed", i)
		}
	}
	misses := 0
	s.LookupBatch(keys, func(i int, got []uint64) {
		if len(got) != 1 || got[0] != uint64(i) {
			misses++
		}
	})
	if misses != 0 {
		t.Fatalf("%d lookups wrong after refresh-crossing batch", misses)
	}
}

// TestBatchEmptyKeyReleasesEpoch: a batch holding an empty key must panic
// before it enters the epoch, as the single ops do. Otherwise a caller
// that recovers hands back a session still inside the epoch, and
// reclamation stalls behind it.
func TestBatchEmptyKeyReleasesEpoch(t *testing.T) {
	keys := [][]byte{batchKey(1), nil, batchKey(2)}
	vals := make([]uint64, len(keys))
	for _, c := range []struct {
		name string
		op   func(s *Session)
	}{
		{"insert", func(s *Session) { s.InsertBatch(keys, vals, nil) }},
		{"delete", func(s *Session) { s.DeleteBatch(keys, vals, nil) }},
		{"lookup", func(s *Session) { s.LookupBatch(keys, func(int, []uint64) {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.GCInterval = time.Millisecond
			tr := New(opts)
			defer tr.Close()
			s := tr.NewSession()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("empty key did not panic")
					}
				}()
				c.op(s)
			}()
			s.Release()
			time.Sleep(50 * time.Millisecond)
			if lag := tr.Stats().GC.EpochLag; lag > 5 {
				t.Fatalf("epoch lag %d after a recovered panic, want <= 5", lag)
			}
		})
	}
}
