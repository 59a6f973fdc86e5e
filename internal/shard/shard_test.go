package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/bwtree"
	"repro/internal/obs"
)

func key64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func smallTreeOpts() bwtree.Options {
	o := bwtree.DefaultOptions()
	o.LeafNodeSize = 16
	o.InnerNodeSize = 8
	o.LeafChainLength = 4
	o.LeafMergeSize = 4
	o.InnerMergeSize = 2
	return o
}

func TestRouterConsistency(t *testing.T) {
	for _, scheme := range []string{"hash", "range"} {
		r, err := NewRouter(scheme, 8)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumShards() != 8 {
			t.Fatalf("%s: NumShards = %d", scheme, r.NumShards())
		}
		seen := make(map[int]int)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			// Full-width random keys: the uniform range router cuts on the
			// 2-byte prefix, so only spanning keys exercise every shard.
			k := key64(rng.Uint64())
			s := r.Shard(k)
			if s < 0 || s >= 8 {
				t.Fatalf("%s: shard %d out of range", scheme, s)
			}
			if s2 := r.Shard(k); s2 != s {
				t.Fatalf("%s: unstable routing %d vs %d", scheme, s, s2)
			}
			seen[s]++
		}
		for s := 0; s < 8; s++ {
			if seen[s] == 0 {
				t.Errorf("%s: shard %d never routed", scheme, s)
			}
		}
	}
}

// rangeRouterBounds builds a range router from explicit ascending
// separator keys; len(bounds)+1 shards result.
func rangeRouterBounds(bounds [][]byte) *RangeRouter { return &RangeRouter{bounds: bounds} }

func TestRangeRouterOrder(t *testing.T) {
	r := NewRangeRouter(8)
	// Routing must be monotone in the key: ascending keys never route to
	// a lower shard (the property scatter-gather skipping relies on).
	prev := 0
	for i := uint64(0); i < 1<<16; i += 97 {
		k := []byte{byte(i >> 8), byte(i), 0xab}
		s := r.Shard(k)
		if s < prev {
			t.Fatalf("routing not monotone: key %x -> shard %d after %d", k, s, prev)
		}
		prev = s
	}
	rr := rangeRouterBounds([][]byte{{0x40}, {0x80}, {0xc0}})
	if rr.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", rr.NumShards())
	}
	if got := rr.Shard([]byte{0x00}); got != 0 {
		t.Fatalf("Shard(00) = %d", got)
	}
	if got := rr.Shard([]byte{0xc0}); got != 3 {
		t.Fatalf("Shard(c0) = %d", got)
	}
}

// TestScanChunkBoundaries verifies the merged iterator is exact across
// chunk refills: more keys per shard than one chunk, scans landing on
// every alignment.
func TestScanChunkBoundaries(t *testing.T) {
	st, err := Open(Options{Shards: 4, Tree: smallTreeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession()
	defer s.Release()

	const n = 4 * scanChunk // forces multiple refills per shard
	for i := uint64(0); i < n; i++ {
		if ok, err := s.Insert(key64(i), i*3); err != nil || !ok {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	for _, start := range []uint64{0, 1, scanChunk - 1, scanChunk, scanChunk + 1, n - 5, n} {
		for _, limit := range []int{1, 7, scanChunk, scanChunk + 1, n, math.MaxInt} {
			want := uint64(start)
			got := 0
			s.Scan(key64(start), limit, func(k []byte, v uint64) bool {
				ku := binary.BigEndian.Uint64(k)
				if ku != want {
					t.Fatalf("scan(start=%d,n=%d): got key %d, want %d", start, limit, ku, want)
				}
				if v != ku*3 {
					t.Fatalf("scan: key %d value %d, want %d", ku, v, ku*3)
				}
				want++
				got++
				return true
			})
			expect := max(min(int(n-start), limit), 0)
			if got != expect {
				t.Fatalf("scan(start=%d,n=%d): visited %d, want %d", start, limit, got, expect)
			}
		}
	}
	// Early stop: visit returning false ends the merge immediately.
	visited := 0
	got := s.Scan(key64(0), 100, func(k []byte, v uint64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 || got != 3 {
		t.Fatalf("early stop: visited=%d ret=%d, want 3", visited, got)
	}
}

// TestScanFetchesRoughlyWhatItReturns pins the first-fill bound: a
// 50-pair scan over two hash shards fetches its even share plus slack
// from each, not 50 pairs from both.
func TestScanFetchesRoughlyWhatItReturns(t *testing.T) {
	st, err := Open(Options{Shards: 2, Tree: smallTreeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession()
	defer s.Release()
	for i := uint64(0); i < 1000; i++ {
		if ok, err := s.Insert(key64(i), i); err != nil || !ok {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	const n = 50
	want := uint64(100)
	got := s.Scan(key64(want), n, func(k []byte, v uint64) bool {
		if ku := binary.BigEndian.Uint64(k); ku != want {
			t.Fatalf("scan: got key %d, want %d", ku, want)
		}
		want++
		return true
	})
	if got != n {
		t.Fatalf("scan returned %d pairs, want %d", got, n)
	}
	// A cursor refills only once its buffer is emitted, so what the
	// shards handed over is what the scan emitted plus what the cursors
	// still buffer.
	pulled := got
	for i := range s.curs {
		pulled += s.curs[i].len() - s.curs[i].pos
	}
	if pulled >= 2*n {
		t.Fatalf("a %d-pair scan over 2 shards pulled %d pairs, want < %d", n, pulled, 2*n)
	}
	t.Logf("a %d-pair scan over 2 shards pulled %d pairs", n, pulled)
}

// TestScatterGatherOracle is the satellite's concurrency test: a merged
// scan over 8 shards racing inserts/deletes/updates that churn enough to
// drive splits and merges, compared against a single-tree oracle holding
// the stable keys. Every scan must be strictly ascending, duplicate-free,
// and exactly agree with the oracle on the stable subsequence of the
// covered range; after the churn stops, a full merged sweep must equal
// the union of the stable keys and each worker's exact mirror.
func TestScatterGatherOracle(t *testing.T) {
	for _, scheme := range []string{"hash", "range"} {
		t.Run(scheme, func(t *testing.T) {
			r, _ := NewRouter(scheme, 8)
			if scheme == "range" {
				// The workload keys live in [0, stableMax): data-aware bounds
				// are what a real range deployment would use (the uniform
				// prefix cuts would put every small big-endian key in shard 0).
				var bounds [][]byte
				for i := uint64(1); i < 8; i++ {
					bounds = append(bounds, key64(i*8192/8))
				}
				r = rangeRouterBounds(bounds)
			}
			st, err := Open(Options{Shards: 8, Router: r, Tree: smallTreeOpts()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			// Stable keys (even) go into the store and the oracle and are
			// never touched again. The small keyspace + tiny nodes mean the
			// churn constantly splits and merges the leaves around them.
			oracle := bwtree.New(smallTreeOpts())
			defer oracle.Close()
			os := oracle.NewSession()
			defer os.Release()
			loader := st.NewSession()
			const stableMax = 8192
			for k := uint64(0); k < stableMax; k += 2 {
				if ok, _ := loader.Insert(key64(k), k); !ok {
					t.Fatalf("stable insert %d failed", k)
				}
				if !os.Insert(key64(k), k) {
					t.Fatalf("oracle insert %d failed", k)
				}
			}
			loader.Release()

			const workers = 4
			var stop atomic.Bool
			var wg sync.WaitGroup
			mirrors := make([]map[uint64]uint64, workers)
			for w := 0; w < workers; w++ {
				mirrors[w] = make(map[uint64]uint64)
				wg.Add(1)
				go func(w int, mine map[uint64]uint64) {
					defer wg.Done()
					ss := st.NewSession()
					defer ss.Release()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for !stop.Load() {
						// Odd keys, partitioned per worker: k ≡ 2w+1 (mod 2·workers).
						k := uint64(2*w+1) + 2*workers*uint64(rng.Intn(stableMax/(2*workers)))
						switch rng.Intn(3) {
						case 0:
							v := rng.Uint64()
							ok, err := ss.Insert(key64(k), v)
							if err != nil {
								t.Errorf("insert: %v", err)
								return
							}
							_, had := mine[k]
							if ok == had {
								t.Errorf("insert %d: ok=%v had=%v", k, ok, had)
								return
							}
							if ok {
								mine[k] = v
							}
						case 1:
							ok, err := ss.Delete(key64(k), 0)
							if err != nil {
								t.Errorf("delete: %v", err)
								return
							}
							_, had := mine[k]
							if ok != had {
								t.Errorf("delete %d: ok=%v had=%v", k, ok, had)
								return
							}
							delete(mine, k)
						default:
							v := rng.Uint64()
							ok, err := ss.Update(key64(k), v)
							if err != nil {
								t.Errorf("update: %v", err)
								return
							}
							_, had := mine[k]
							if ok != had {
								t.Errorf("update %d: ok=%v had=%v", k, ok, had)
								return
							}
							if had {
								mine[k] = v
							}
						}
					}
				}(w, mirrors[w])
			}

			// Scanner: merged scans racing the churn.
			scans := 200
			if testing.Short() {
				scans = 50
			}
			sc := st.NewSession()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < scans; i++ {
				start := uint64(rng.Intn(stableMax))
				limit := 1 + rng.Intn(512)
				var keys []uint64
				sc.Scan(key64(start), limit, func(k []byte, v uint64) bool {
					keys = append(keys, binary.BigEndian.Uint64(k))
					return true
				})
				for j := 1; j < len(keys); j++ {
					if keys[j] <= keys[j-1] {
						t.Fatalf("scan %d: order violation %d after %d", i, keys[j], keys[j-1])
					}
				}
				if len(keys) == 0 {
					continue
				}
				// Oracle comparison over the covered range [start, last].
				last := keys[len(keys)-1]
				var wantStable []uint64
				os.Scan(key64(start), stableMax, func(k []byte, v uint64) bool {
					ku := binary.BigEndian.Uint64(k)
					if ku > last {
						return false
					}
					wantStable = append(wantStable, ku)
					return true
				})
				var gotStable []uint64
				for _, k := range keys {
					if k%2 == 0 {
						gotStable = append(gotStable, k)
					}
				}
				if len(gotStable) != len(wantStable) {
					t.Fatalf("scan %d [%d,%d]: stable keys %v, oracle %v", i, start, last, gotStable, wantStable)
				}
				for j := range gotStable {
					if gotStable[j] != wantStable[j] {
						t.Fatalf("scan %d: stable key[%d] = %d, oracle %d", i, j, gotStable[j], wantStable[j])
					}
				}
			}
			sc.Release()

			stop.Store(true)
			wg.Wait()
			if t.Failed() {
				return
			}

			// Quiescent full sweep: the merged iterator must now equal the
			// union of stable keys and the workers' exact mirrors.
			expect := make(map[uint64]uint64)
			for k := uint64(0); k < stableMax; k += 2 {
				expect[k] = k
			}
			for _, m := range mirrors {
				for k, v := range m {
					expect[k] = v
				}
			}
			fs := st.NewSession()
			defer fs.Release()
			seen := 0
			var prev uint64
			first := true
			fs.Scan([]byte{0}, stableMax*2, func(k []byte, v uint64) bool {
				ku := binary.BigEndian.Uint64(k)
				if !first && ku <= prev {
					t.Errorf("final sweep order violation: %d after %d", ku, prev)
				}
				prev, first = ku, false
				want, ok := expect[ku]
				if !ok {
					t.Errorf("final sweep: unexpected key %d", ku)
				} else if v != want {
					t.Errorf("final sweep: key %d = %d, want %d", ku, v, want)
				}
				seen++
				return true
			})
			if seen != len(expect) {
				t.Errorf("final sweep saw %d keys, want %d", seen, len(expect))
			}
			if err := st.Validate(); err != nil {
				t.Errorf("validate: %v", err)
			}
			// The churn must actually have exercised SMOs for the test to
			// mean anything.
			stats := st.Stats()
			if stats.Splits == 0 || stats.Consolidations == 0 {
				t.Errorf("churn too gentle: splits=%d consolidations=%d", stats.Splits, stats.Consolidations)
			}
		})
	}
}

// TestDurableShardRecovery exercises the shared log: write through a
// sharded durable store, checkpoint, write more, close, reopen, and
// verify every acknowledged key recovered into the right shard.
func TestDurableShardRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		st, err := Open(Options{Shards: 4, Tree: smallTreeOpts(), WALDir: dir, SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	s := st.NewSession()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if ok, err := s.Insert(key64(i), i+7); err != nil || !ok {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(n); i < n+500; i++ {
		if ok, err := s.Insert(key64(i), i+7); err != nil || !ok {
			t.Fatalf("post-checkpoint insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if ok, err := s.Delete(key64(i), 0); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	s.Release()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := open()
	defer st2.Close()
	rec := st2.RecoveryStats()
	if rec.SnapshotKeys == 0 {
		t.Error("no snapshot keys recovered; checkpoint did not land")
	}
	if rec.Replayed == 0 {
		t.Error("no log records replayed; tail writes lost")
	}
	s2 := st2.NewSession()
	defer s2.Release()
	var out []uint64
	for i := uint64(0); i < n+500; i++ {
		out = s2.Lookup(key64(i), out[:0])
		if i < 100 {
			if len(out) != 0 {
				t.Fatalf("deleted key %d present after recovery", i)
			}
			continue
		}
		if len(out) != 1 || out[0] != i+7 {
			t.Fatalf("key %d = %v after recovery, want %d", i, out, i+7)
		}
	}
	if got := st2.Count(); got != n+500-100 {
		t.Fatalf("recovered count %d, want %d", got, n+500-100)
	}
	// Every shard must own only keys its router maps to it.
	for _, sh := range st2.Shards() {
		ts := sh.Tree().NewSession()
		ts.Scan([]byte{0}, n+500, func(k []byte, v uint64) bool {
			if got := st2.Router().Shard(k); got != sh.ID {
				t.Errorf("key %x in shard %d, routed to %d", k, sh.ID, got)
				return false
			}
			return true
		})
		ts.Release()
	}
}

// TestLegacyShardDirsRefused: a WALDir holding the per-shard log
// directories of the layout that gave every shard its own log must fail
// to open, not open as an empty store.
func TestLegacyShardDirsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(Options{Shards: 2, WALDir: dir}); err == nil {
		st.Close()
		t.Fatal("Open accepted a directory of per-shard logs")
	}
}

// TestVolatileStoreHasNoLog: every store, volatile or not, is one
// bwtree.Durable; without a log its checkpoint and crash do nothing, its
// data stays, and /metrics carries no log or checkpoint series.
func TestVolatileStoreHasNoLog(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		st, err := Open(Options{Shards: 2, Tree: smallTreeOpts(), WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st.Durable() == nil {
			t.Fatalf("WALDir %q: Durable() is nil", dir)
		}
		s := st.NewSession()
		for i := uint64(0); i < 100; i++ {
			s.Insert(key64(i), i)
		}
		s.Release()
		if err := errors.Join(st.Checkpoint(), st.Crash()); err != nil {
			t.Fatalf("WALDir %q: %v", dir, err)
		}
		if got := st.Count(); got != 100 {
			t.Fatalf("WALDir %q: Count = %d after checkpoint and crash, want 100", dir, got)
		}
		var b bytes.Buffer
		obs.WritePrometheus(&b, DebugVars(st))
		logged := strings.Contains(b.String(), "bwtree_wal_") || strings.Contains(b.String(), "checkpoint_age")
		if logged != (dir != "") {
			t.Errorf("WALDir %q: /metrics has log or checkpoint series: %v, want %v", dir, logged, dir != "")
		}
		st.Close()
	}
}

// TestStoreStatsAggregation sanity-checks counter aggregation and the
// per-shard surfaces in DebugVars, and that the WAL counters are the one
// log's.
func TestStoreStatsAggregation(t *testing.T) {
	opts := smallTreeOpts()
	opts.Trace = true
	st, err := Open(Options{Shards: 3, Tree: opts, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession()
	defer s.Release()
	for i := uint64(0); i < 3000; i++ {
		s.Insert(key64(i), i)
	}
	if got := st.Count(); got != 3000 {
		t.Fatalf("Count = %d, want 3000", got)
	}
	if stats := st.Stats(); stats.Ops < 3000 {
		t.Fatalf("aggregate Ops = %d, want >= 3000", stats.Ops)
	}
	v := DebugVars(st)
	counters := v.Counters()
	var perShard uint64
	for i := 0; i < 3; i++ {
		c, ok := counters[fmt.Sprintf("shard%02d_ops", i)]
		if !ok {
			t.Fatalf("missing per-shard counter for shard %d", i)
		}
		perShard += c
	}
	if perShard != counters["ops"] {
		t.Fatalf("per-shard ops sum %d != aggregate %d", perShard, counters["ops"])
	}
	if g := v.Gauges(); g["shards"] != 3 {
		t.Fatalf("shards gauge = %v", g["shards"])
	}
	if got, want := counters["wal_appends"], st.Durable().WALStats().Appends; got != want || want < 3000 {
		t.Fatalf("wal_appends = %d, the log's Appends = %d, want them equal and >= 3000", got, want)
	}
	if v.Latency == nil {
		t.Fatal("latency feed missing with Trace on")
	}
	if total := v.Latency().Total(); total == 0 {
		t.Fatal("merged latency snapshot empty")
	}
	shape := v.Shape()
	if shape["leaf_nodes"].(uint64) == 0 {
		t.Fatal("aggregated shape reports zero leaves")
	}
	var pooled int64
	for _, sh := range shape["shards"].([]map[string]any) {
		pooled += sh["pooled_slabs"].(int64)
	}
	if shape["pooled_slabs"].(int64) != pooled {
		t.Fatalf("aggregated pooled_slabs %v, per-shard sum %d", shape["pooled_slabs"], pooled)
	}
}

// TestDebugVarsHelpAgrees renders /metrics for a one-tree durable store
// (bwtree.DurableDebugVars), a durable sharded store and an in-memory one
// (DebugVars), and requires every metric name two of them share to carry
// the same HELP text: one series must not be described two ways.
func TestDebugVarsHelpAgrees(t *testing.T) {
	opts := smallTreeOpts()
	opts.Trace = true
	d, err := bwtree.OpenDurable(t.TempDir(), bwtree.DurableOptions{Tree: opts, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ds := d.NewSession()
	for i := uint64(0); i < 200; i++ {
		ds.Insert(key64(i), i)
	}
	ds.Release()
	surfaces := map[string]obs.Vars{"bwtree.DurableDebugVars": bwtree.DurableDebugVars(d)}
	for name, dir := range map[string]string{"durable DebugVars": t.TempDir(), "in-memory DebugVars": ""} {
		st, err := Open(Options{Shards: 2, Tree: opts, WALDir: dir, SyncOnCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := st.NewSession()
		for i := uint64(0); i < 200; i++ {
			s.Insert(key64(i), i)
		}
		s.Release()
		surfaces[name] = DebugVars(st)
	}

	helps := map[string]map[string]string{}
	for name, v := range surfaces {
		var b bytes.Buffer
		obs.WritePrometheus(&b, v)
		helps[name] = map[string]string{}
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				metric, text, _ := strings.Cut(rest, " ")
				helps[name][metric] = text
			}
		}
	}
	shared := 0
	for a, ha := range helps {
		for b, hb := range helps {
			for metric, text := range ha {
				if other, ok := hb[metric]; ok && a < b {
					shared++
					if other != text {
						t.Errorf("%s: %s says %q, %s says %q", metric, a, text, b, other)
					}
				}
			}
		}
	}
	for _, metric := range []string{"bwtree_chain_depth", "bwtree_wal_batch_records", "bwtree_wal_fsync_seconds"} {
		if _, ok := helps["durable DebugVars"][metric]; !ok {
			t.Errorf("durable DebugVars has no HELP for %s", metric)
		}
	}
	if shared == 0 {
		t.Fatal("no metric name is shared between the surfaces")
	}
}
