package txn

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/bwtree"
	"repro/internal/index"
	"repro/internal/shard"
)

// keysOn returns the first n keys tkey(0), tkey(1), ... that the router
// sends to shard sh.
func keysOn(r shard.Router, sh, n int) [][]byte {
	var ks [][]byte
	for i := uint64(0); len(ks) < n; i++ {
		if k := tkey(i); r.Shard(k) == sh {
			ks = append(ks, k)
		}
	}
	return ks
}

// openBenchStore opens a durable store of n hash-routed shards in a fresh
// directory.
func openBenchStore(b *testing.B, n int, syncOnCommit bool) *shard.Store {
	b.Helper()
	ss, err := shard.Open(shard.Options{Shards: n, Tree: bwtree.DefaultOptions(), WALDir: b.TempDir(), SyncOnCommit: syncOnCommit})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ss.Close() })
	return ss
}

// BenchmarkCrossShardCommit times one committed write set that puts one
// key on every shard of a durable store, with and without the
// acknowledged-write guarantee.
//
//	go test -run '^$' -bench CrossShardCommit -count 10 ./internal/txn/
func BenchmarkCrossShardCommit(b *testing.B) {
	for _, n := range []int{2, 4} {
		for _, sync := range []bool{true, false} {
			b.Run(fmt.Sprintf("shards=%d/sync=%v", n, sync), func(b *testing.B) {
				ss := openBenchStore(b, n, sync)
				const perShard = 1024
				keys := make([][][]byte, n) // keys[sh] all route to shard sh
				for sh := range keys {
					keys[sh] = keysOn(ss.Router(), sh, perShard)
				}
				s := New(ss).NewSession()
				defer s.Release()
				writes := make([]index.TxnWrite, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for sh := range writes {
						writes[sh] = index.TxnWrite{Op: index.TxnPut, Key: keys[sh][i%perShard], Value: uint64(i) + 1}
					}
					if res, err := s.CommitTxn(nil, writes); err != nil || res.Status != index.TxnCommitted {
						b.Fatalf("commit: %+v %v", res, err)
					}
				}
			})
		}
	}
}

// BenchmarkDurableShardSet times single-key updates through shard
// sessions on a durable 2-shard store without the per-commit fsync wait,
// so the log's append path is what the parallel writers share.
//
//	go test -run '^$' -bench DurableShardSet -cpu 1,2 -count 10 ./internal/txn/
func BenchmarkDurableShardSet(b *testing.B) {
	ss := openBenchStore(b, 2, false)
	const nkeys = 1 << 16
	load := ss.NewSession()
	for i := uint64(0); i < nkeys; i++ {
		if _, err := load.Insert(tkey(i), i); err != nil {
			b.Fatal(err)
		}
	}
	load.Release()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := ss.NewSession()
		defer s.Release()
		i := next.Add(nkeys / 8) // each goroutine starts in its own stretch
		for pb.Next() {
			i++
			if _, err := s.Update(tkey(i%nkeys), i); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
