package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestOptionsMatrix runs a concurrent smoke workload on every combination
// of the four switchable paper optimizations (§4.1 pre-allocation, §4.3
// fast consolidation, §4.4 search shortcuts, §3.1 non-unique keys) plus
// the flat leaf and inner base-node layouts, under both GC schemes — 64
// flag combinations × 2 schemes — so no combination can silently rot
// (every FlatBaseNodes × FlatInnerNodes pairing is covered). Nodes are
// tiny so the smoke forces splits, merges, and consolidations; the
// workload mixes the single-op and batch paths, and a read-only phase
// then checks that lookups consolidate the chains it left. Scan
// pipelining rides along with either flat flag, so the prefetch path
// runs under contention and -race here too.
func TestOptionsMatrix(t *testing.T) {
	gcName := map[GCScheme]string{GCDecentralized: "decentralized", GCCentralized: "centralized"}
	for mask := 0; mask < 64; mask++ {
		opts := DefaultOptions()
		opts.Preallocate = mask&1 != 0
		opts.FastConsolidate = mask&2 != 0
		opts.SearchShortcuts = mask&4 != 0
		opts.NonUnique = mask&8 != 0
		opts.FlatBaseNodes = mask&16 != 0
		opts.FlatInnerNodes = mask&32 != 0
		opts.ScanPipelining = opts.anyFlatNodes()
		opts.LeafNodeSize = 16
		opts.InnerNodeSize = 8
		opts.LeafChainLength = 4
		opts.InnerChainLength = 2
		opts.LeafMergeSize = 4
		opts.InnerMergeSize = 2
		for _, gc := range []GCScheme{GCDecentralized, GCCentralized} {
			opts.GC = gc
			name := fmt.Sprintf("prealloc=%t,fastcons=%t,shortcuts=%t,nonuniq=%t,flat=%t,flatinner=%t/%s",
				opts.Preallocate, opts.FastConsolidate, opts.SearchShortcuts,
				opts.NonUnique, opts.FlatBaseNodes, opts.FlatInnerNodes, gcName[gc])
			t.Run(name, func(t *testing.T) {
				optionsMatrixSmoke(t, opts)
			})
		}
	}
}

func optionsMatrixSmoke(t *testing.T, opts Options) {
	tr := New(opts)
	defer tr.Close()
	const (
		nw         = 4
		stripe     = 512
		sharedBase = uint64(1 << 20)
		sharedSpan = 256
		mixedOps   = 2500
	)
	workers(nw, func(w int) {
		s := tr.NewSession()
		defer s.Release()

		// Private stripe through the batch path: insert all, verify all.
		base := uint64(w) * stripe
		keys := make([][]byte, stripe)
		vals := make([]uint64, stripe)
		for i := range keys {
			keys[i] = key64(base + uint64(i))
			vals[i] = base + uint64(i)
		}
		for i, ok := range s.InsertBatch(keys, vals, nil) {
			if !ok {
				t.Errorf("worker %d: batch insert of private key %d failed", w, base+uint64(i))
				return
			}
		}
		seen := 0
		s.LookupBatch(keys, func(i int, vs []uint64) {
			if len(vs) != 1 || vs[0] != vals[i] {
				t.Errorf("worker %d: private key %d = %v, want [%d]", w, base+uint64(i), vs, vals[i])
			}
			seen++
		})
		if seen != stripe {
			t.Errorf("worker %d: batch lookup visited %d of %d keys", w, seen, stripe)
			return
		}

		// Contended single-op mix on a shared range.
		rng := rand.New(rand.NewSource(int64(w)*31 + 7))
		var out []uint64
		for i := 0; i < mixedOps; i++ {
			k := sharedBase + uint64(rng.Intn(sharedSpan))
			switch rng.Intn(6) {
			case 0, 1:
				s.Insert(key64(k), uint64(w))
			case 2:
				s.Delete(key64(k), uint64(w))
			case 3:
				s.Update(key64(k), uint64(w))
			default:
				out = s.Lookup(key64(k), out[:0])
				if !opts.NonUnique && len(out) > 1 {
					t.Errorf("worker %d: shared key %d has %d values in unique mode", w, k, len(out))
					return
				}
			}
		}

		// Delete the odd half of the stripe through the batch path.
		var oddKeys [][]byte
		var oddVals []uint64
		for i := 1; i < stripe; i += 2 {
			oddKeys = append(oddKeys, keys[i])
			oddVals = append(oddVals, vals[i])
		}
		for i, ok := range s.DeleteBatch(oddKeys, oddVals, nil) {
			if !ok {
				t.Errorf("worker %d: batch delete of private key %x failed", w, oddKeys[i])
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.NewSession()
	defer s.Release()
	// Read-only phase: LeafNodeSize lookups into each chained leaf, with
	// no write between them, consolidate it from the read path.
	if keys := chainedLeafKeys(tr); len(keys) > 0 {
		before := tr.Stats().Consolidations
		for _, k := range keys {
			for i := 0; i < opts.LeafNodeSize; i++ {
				s.Lookup(k, nil)
			}
		}
		if tr.Stats().Consolidations == before {
			t.Errorf("reading %d chained leaves %d times each consolidated none", len(keys), opts.LeafNodeSize)
		}
	}
	// Every even private key must survive with its value; every odd one
	// must be gone.
	for w := 0; w < nw; w++ {
		base := uint64(w) * stripe
		for i := 0; i < stripe; i++ {
			k := base + uint64(i)
			got := s.Lookup(key64(k), nil)
			if i%2 == 1 {
				if len(got) != 0 {
					t.Fatalf("deleted key %d still has %v", k, got)
				}
			} else if len(got) != 1 || got[0] != k {
				t.Fatalf("key %d = %v, want [%d]", k, got, k)
			}
		}
	}
	if tr.Stats().Splits == 0 {
		t.Error("smoke workload recorded no splits; nodes not tiny enough")
	}
}

// chainedLeafKeys returns one key inside each leaf whose head is a delta
// chain: its low key, or the smallest key for the leftmost leaf. The tree
// must be quiescent.
func chainedLeafKeys(tr *Tree) [][]byte {
	s := tr.NewSession()
	defer s.Release()
	s.h.Enter()
	defer s.h.Exit()
	var keys [][]byte
	var walk func(id nodeID)
	walk = func(id nodeID) {
		head := tr.load(id)
		switch {
		case !head.isLeaf:
			for _, kid := range s.collect(head).kids {
				walk(kid)
			}
		case head.kind != kLeafBase && head.kind != kRemove:
			k := head.lowKey
			if k == nil {
				k = []byte{0}
			}
			keys = append(keys, cloneKey(k))
		}
	}
	walk(tr.root)
	return keys
}
