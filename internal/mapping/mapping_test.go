package mapping

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocateStoreLoad(t *testing.T) {
	tb := New[int](0)
	id := tb.Allocate()
	if got := tb.Load(id); got != nil {
		t.Fatalf("fresh id loads %v", got)
	}
	v := 42
	tb.Store(id, &v)
	if got := tb.Load(id); got == nil || *got != 42 {
		t.Fatalf("load after store: %v", got)
	}
}

func TestAllocateDistinct(t *testing.T) {
	tb := New[int](0)
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		id := tb.Allocate()
		if seen[id] {
			t.Fatalf("id %d allocated twice", id)
		}
		seen[id] = true
	}
	if hwm := tb.Stats().Allocated; hwm < 100000 {
		t.Fatalf("hwm %d", hwm)
	}
}

func TestCompareAndSwap(t *testing.T) {
	tb := New[int](0)
	id := tb.Allocate()
	a, b := 1, 2
	tb.Store(id, &a)
	if tb.CompareAndSwap(id, &b, &a) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !tb.CompareAndSwap(id, &a, &b) {
		t.Fatal("CAS with correct expected value failed")
	}
	if got := tb.Load(id); *got != 2 {
		t.Fatalf("after CAS: %d", *got)
	}
}

func TestRecycle(t *testing.T) {
	tb := New[int](0)
	v := 7
	id := tb.Allocate()
	tb.Store(id, &v)
	tb.Recycle(id)
	if got := tb.Load(id); got != nil {
		t.Fatalf("recycled id still loads %v", got)
	}
	if id2 := tb.Allocate(); id2 != id {
		t.Fatalf("recycled id not reused: %d vs %d", id2, id)
	}
}

func TestLazyChunkInstallation(t *testing.T) {
	tb := New[int](0)
	// Far beyond the eagerly-installed chunk.
	id := uint64(5 * ChunkSize)
	if got := tb.Load(id); got != nil {
		t.Fatalf("uninstalled chunk loads %v", got)
	}
	v := 9
	if !tb.CompareAndSwap(id, nil, &v) {
		t.Fatal("CAS into fresh chunk failed")
	}
	if got := tb.Load(id); got == nil || *got != 9 {
		t.Fatalf("load: %v", got)
	}
	if tb.MemoryFootprint() == 0 {
		t.Fatal("zero footprint")
	}
}

func TestConcurrentAllocateAndCAS(t *testing.T) {
	tb := New[uint64](0)
	nw := runtime.GOMAXPROCS(0) * 4
	const per = 20000
	ids := make([][]uint64, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := tb.Allocate()
				v := uint64(w)<<32 | uint64(i)
				tb.Store(id, &v)
				ids[w] = append(ids[w], id)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for w := range ids {
		for i, id := range ids[w] {
			if seen[id] {
				t.Fatalf("id %d handed to two workers", id)
			}
			seen[id] = true
			got := tb.Load(id)
			if got == nil || *got != uint64(w)<<32|uint64(i) {
				t.Fatalf("worker %d slot %d: %v", w, i, got)
			}
		}
	}
}

// TestConcurrentRecycle churns the free list from 8 goroutines with the
// full allocate -> CaS -> recycle lifecycle a tree node goes through, and
// verifies exclusive ownership throughout: if the Treiber stack ever
// suffered ABA, an ID would be handed to two workers at once (caught by
// the claims map), a freshly allocated slot would read non-nil (stale
// pointer), or an owner's CaS chain would fail. Run under -race.
func TestConcurrentRecycle(t *testing.T) {
	tb := New[uint64](0)
	const nw = 8
	// claims maps id -> owning worker while the ID is allocated. A claim
	// is released before Recycle pushes the ID, so a racing Allocate of
	// the same ID can never observe a lingering claim unless the free
	// list really did hand it out twice.
	var claims sync.Map
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]uint64, 0, 64)
			for i := 0; i < 5000; i++ {
				id := tb.Allocate()
				if prev, taken := claims.LoadOrStore(id, w); taken {
					t.Errorf("id %d allocated to worker %d while worker %v still owns it", id, w, prev)
					return
				}
				if got := tb.Load(id); got != nil {
					t.Errorf("freshly allocated id %d reads stale pointer %v", id, got)
					return
				}
				// The owner's CaS chain must never lose the slot.
				v1 := uint64(w)<<32 | uint64(i)
				v2 := v1 + 1
				if !tb.CompareAndSwap(id, nil, &v1) {
					t.Errorf("id %d: install CaS failed for exclusive owner", id)
					return
				}
				if !tb.CompareAndSwap(id, &v1, &v2) {
					t.Errorf("id %d: chained CaS failed for exclusive owner", id)
					return
				}
				if got := tb.Load(id); got == nil || *got != v2 {
					t.Errorf("id %d: owner reads %v, want %d", id, got, v2)
					return
				}
				local = append(local, id)
				if len(local) > 32 {
					old := local[0]
					local = local[1:]
					claims.Delete(old)
					tb.Recycle(old)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestQuickStoreLoadRoundtrip(t *testing.T) {
	tb := New[uint64](0)
	f := func(v uint64) bool {
		id := tb.Allocate()
		tb.Store(id, &v)
		got := tb.Load(id)
		return got != nil && *got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
