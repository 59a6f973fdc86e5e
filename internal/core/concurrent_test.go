package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func workers(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func concurrencyConfigs() map[string]Options {
	def := DefaultOptions()
	base := BaselineOptions()
	tiny := def
	tiny.LeafNodeSize = 16
	tiny.InnerNodeSize = 8
	tiny.LeafChainLength = 4
	tiny.InnerChainLength = 2
	tiny.LeafMergeSize = 4
	tiny.InnerMergeSize = 2
	return map[string]Options{"default": def, "baseline": base, "tinyNodes": tiny}
}

// TestConcurrentDisjointInserts has every worker insert a private key
// range; afterwards every key must be present exactly once.
func TestConcurrentDisjointInserts(t *testing.T) {
	for name, opts := range concurrencyConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			nw := runtime.GOMAXPROCS(0)
			const perWorker = 20000
			workers(nw, func(w int) {
				s := tr.NewSession()
				defer s.Release()
				for i := 0; i < perWorker; i++ {
					k := uint64(w)*perWorker + uint64(i)
					if !s.Insert(key64(k), k) {
						t.Errorf("worker %d: insert %d failed", w, k)
						return
					}
				}
			})
			if t.Failed() {
				return
			}
			s := tr.NewSession()
			defer s.Release()
			for k := uint64(0); k < uint64(nw*perWorker); k++ {
				got := s.Lookup(key64(k), nil)
				if len(got) != 1 || got[0] != k {
					t.Fatalf("lookup %d: %v", k, got)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Count(); got != nw*perWorker {
				t.Fatalf("count %d want %d", got, nw*perWorker)
			}
		})
	}
}

// TestConcurrentContendedInserts races every worker on the SAME key
// space: exactly one insert per key may win.
func TestConcurrentContendedInserts(t *testing.T) {
	for name, opts := range concurrencyConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			const keys = 20000
			var wins atomic.Int64
			workers(runtime.GOMAXPROCS(0), func(w int) {
				s := tr.NewSession()
				defer s.Release()
				for i := 0; i < keys; i++ {
					if s.Insert(key64(uint64(i)), uint64(w)) {
						wins.Add(1)
					}
				}
			})
			if wins.Load() != keys {
				t.Fatalf("%d winning inserts for %d keys", wins.Load(), keys)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Count(); got != keys {
				t.Fatalf("count %d", got)
			}
		})
	}
}

// TestConcurrentMixed runs a read/update/insert/delete mix over a shared
// key space and then validates structural invariants and per-key
// sanity: every surviving value must be one some worker wrote.
func TestConcurrentMixed(t *testing.T) {
	for name, opts := range concurrencyConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts)
			defer tr.Close()
			const keySpace = 8192
			const opsPerWorker = 40000
			workers(runtime.GOMAXPROCS(0), func(w int) {
				s := tr.NewSession()
				defer s.Release()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				var out []uint64
				for i := 0; i < opsPerWorker; i++ {
					k := uint64(rng.Intn(keySpace)) + 1
					switch rng.Intn(10) {
					case 0, 1, 2:
						s.Insert(key64(k), k*1000+uint64(w))
					case 3:
						s.Delete(key64(k), 0)
					case 4, 5:
						s.Update(key64(k), k*1000+uint64(w))
					default:
						out = s.Lookup(key64(k), out[:0])
						if len(out) > 1 {
							t.Errorf("key %d has %d values in unique mode", k, len(out))
							return
						}
						if len(out) == 1 && out[0]%1000 != 0 && out[0]/1000 != k {
							t.Errorf("key %d has foreign value %d", k, out[0])
							return
						}
					}
				}
			})
			if t.Failed() {
				return
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
		})
	}
}

// TestConcurrentHighContention mimics the paper's Mono-HC workload: every
// worker appends monotonically increasing keys at the right edge of the
// tree, maximizing CaS contention on a single delta chain (§6.2).
func TestConcurrentHighContention(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	var clock atomic.Uint64
	nw := runtime.GOMAXPROCS(0)
	const perWorker = 20000
	workers(nw, func(w int) {
		s := tr.NewSession()
		defer s.Release()
		for i := 0; i < perWorker; i++ {
			k := clock.Add(1)<<8 | uint64(w)
			if !s.Insert(key64(k), k) {
				t.Errorf("hc insert collision for %d", k)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(); got != nw*perWorker {
		t.Fatalf("count %d want %d", got, nw*perWorker)
	}
	// Contention must be visible in the abort counters (the paper reports
	// abort rates above 1000% at 20 threads).
	if nw > 1 && tr.Stats().Aborts == 0 {
		t.Log("warning: no aborts recorded under high contention")
	}
}

// TestConcurrentIteration runs scans concurrently with mutations. The
// iterator reads immutable leaf bases, so every scan must observe a
// sorted, duplicate-free key sequence.
func TestConcurrentIteration(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()
	{
		s := tr.NewSession()
		for i := uint64(0); i < 50000; i += 2 {
			s.Insert(key64(i), i)
		}
		s.Release()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Mutators toggle odd keys.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				k := uint64(rng.Intn(25000))*2 + 1
				if rng.Intn(2) == 0 {
					s.Insert(key64(k), k)
				} else {
					s.Delete(key64(k), 0)
				}
			}
		}(w)
	}
	// Scanners verify ordering.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			for round := 0; round < 20; round++ {
				var prev uint64
				first := true
				s.Scan(key64(1), 5000, func(k []byte, v uint64) bool {
					cur := binary.BigEndian.Uint64(k)
					if !first && cur <= prev {
						t.Errorf("scan out of order: %d after %d", cur, prev)
						return false
					}
					prev, first = cur, false
					return true
				})
			}
		}(w)
	}
	// Let scanners finish, then stop mutators.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Scanners exit on their own; mutators need the flag. Wait for the
	// scanner portion by re-joining after setting stop once scans finish.
	// Simplest: give scanners their rounds, then stop.
	for i := 0; i < 4*20; i++ {
		runtime.Gosched()
	}
	stop.Store(true)
	<-done
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDeleteHeavy drives nodes into merges while other workers
// read and re-insert, exercising the remove/merge help-along paths.
func TestConcurrentDeleteHeavy(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 32
	opts.InnerNodeSize = 16
	opts.LeafChainLength = 8
	opts.InnerChainLength = 2
	opts.LeafMergeSize = 8
	opts.InnerMergeSize = 4
	tr := New(opts)
	defer tr.Close()

	const keySpace = 30000
	{
		s := tr.NewSession()
		for i := uint64(1); i <= keySpace; i++ {
			s.Insert(key64(i), i)
		}
		s.Release()
	}
	workers(runtime.GOMAXPROCS(0), func(w int) {
		s := tr.NewSession()
		defer s.Release()
		rng := rand.New(rand.NewSource(int64(w) * 17))
		for i := 0; i < 30000; i++ {
			k := uint64(rng.Intn(keySpace)) + 1
			switch rng.Intn(3) {
			case 0:
				s.Delete(key64(k), 0)
			case 1:
				s.Insert(key64(k), k)
			default:
				s.Lookup(key64(k), nil)
			}
		}
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v\n", err)
	}
	if tr.Stats().Merges == 0 {
		t.Log("warning: delete-heavy run recorded no merges")
	}
}
