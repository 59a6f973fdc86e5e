package txn

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/shard"
)

// ownerLookup reads key from the tree of the shard that owns it.
func ownerLookup(ss *shard.Store, key []byte) (uint64, bool) {
	s := ss.Shards()[ss.Router().Shard(key)].Tree().NewSession()
	defer s.Release()
	out := s.Lookup(key, nil)
	if len(out) == 0 {
		return 0, false
	}
	return out[0], true
}

// onlySegment returns the path of the log's one segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one log segment in %s, got %v (%v)", dir, segs, err)
	}
	return segs[0]
}

// TestCrossShardCommitCutEveryByte commits one write set across both
// shards of a durable 2-shard store, then cuts a copy of the log at every
// byte offset of that commit's frame and reopens each copy as 2 shards:
// the write set must be wholly present (only once the whole frame is
// there) or wholly absent, on both shards.
func TestCrossShardCommitCutEveryByte(t *testing.T) {
	dir := t.TempDir()
	ss := openStore(t, 2, dir)
	r := ss.Router()
	a, b := keysOn(r, 0, 2), keysOn(r, 1, 2)
	st := New(ss)
	s := st.NewSession()
	// Before: a[0] and b[0] hold 1; after: a[0] holds 2, b[0] is gone,
	// and a[1], b[1] hold 3 and 4.
	before := map[string]uint64{string(a[0]): 1, string(b[0]): 1}
	after := map[string]uint64{string(a[0]): 2, string(a[1]): 3, string(b[1]): 4}
	if res, err := s.CommitTxn(nil, []index.TxnWrite{
		{Op: index.TxnPut, Key: a[0], Value: 1},
		{Op: index.TxnPut, Key: b[0], Value: 1},
	}); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("seed: %+v %v", res, err)
	}
	seg := onlySegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	start := fi.Size()
	if res, err := s.CommitTxn(nil, []index.TxnWrite{
		{Op: index.TxnPut, Key: a[0], Value: 2},
		{Op: index.TxnDel, Key: b[0]},
		{Op: index.TxnPut, Key: a[1], Value: 3},
		{Op: index.TxnPut, Key: b[1], Value: 4},
	}); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("cross-shard commit: %+v %v", res, err)
	}
	s.Release()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	end := int64(len(log))
	if end <= start {
		t.Fatalf("commit left no frame: log %d bytes before, %d after", start, end)
	}

	keys := [][]byte{a[0], a[1], b[0], b[1]}
	for cut := start; cut <= end; cut++ {
		cdir := filepath.Join(t.TempDir(), "log")
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs := openStore(t, 2, cdir)
		want := before
		if cut == end {
			want = after
		}
		for _, k := range keys {
			v, ok := ownerLookup(cs, k)
			if w, wok := want[string(k)]; ok != wok || v != w {
				t.Fatalf("cut at %d of frame [%d,%d]: key %x = %d %v, want %d %v", cut, start, end, k, v, ok, w, wok)
			}
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCrashAcknowledged checkpoints a durable 2-shard store
// while writers commit single keys and cross-shard write sets, crashes
// it, and reopens it: every acknowledged key reads back from its owning
// shard, and the directory holds exactly one MANIFEST and one snapshot.
func TestCheckpointCrashAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ss := openStore(t, 2, dir)
	st := New(ss)

	const workers = 4
	acked := make([]map[uint64]uint64, workers) // worker w's acknowledged keys
	var crashed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[uint64]uint64)
		wg.Add(1)
		go func(w int, mine map[uint64]uint64) {
			defer wg.Done()
			ts := st.NewSession()
			defer ts.Release()
			ks := ss.NewSession()
			defer ks.Release()
			// Fresh keys only, k ≡ w (mod workers), so an acknowledged
			// value is never overwritten by a later, unresolved write.
			for j := uint64(0); ; j++ {
				i := uint64(w) + 3*workers*j
				var err error
				if j%2 == 0 {
					_, err = ks.Insert(tkey(i), i+1)
					if err == nil {
						mine[i] = i + 1
					}
				} else {
					var res index.TxnResult
					res, err = ts.CommitTxn(nil, []index.TxnWrite{
						{Op: index.TxnPut, Key: tkey(i), Value: i + 1},
						{Op: index.TxnPut, Key: tkey(i + workers), Value: i + 2},
						{Op: index.TxnPut, Key: tkey(i + 2*workers), Value: i + 3},
					})
					if err == nil && res.Status == index.TxnCommitted {
						mine[i], mine[i+workers], mine[i+2*workers] = i+1, i+2, i+3
					}
				}
				if err != nil {
					if !crashed.Load() {
						t.Errorf("worker %d: %v before the crash", w, err)
					}
					return
				}
			}
		}(w, acked[w])
	}
	var cps atomic.Int32
	cpDone := make(chan struct{})
	go func() {
		defer close(cpDone)
		for !crashed.Load() {
			if err := ss.Checkpoint(); err == nil {
				cps.Add(1)
			} else if !crashed.Load() {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); cps.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	crashed.Store(true)
	if err := ss.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-cpDone
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if cps.Load() < 2 {
		t.Fatalf("only %d checkpoints finished before the crash", cps.Load())
	}

	ss2 := openStore(t, 2, dir)
	defer ss2.Close()
	n := 0
	for _, mine := range acked {
		for i, v := range mine {
			if got, ok := ownerLookup(ss2, tkey(i)); !ok || got != v {
				t.Fatalf("acknowledged key %d = %d %v after recovery, want %d", i, got, ok, v)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no write was acknowledged before the crash")
	}
	for _, pattern := range []string{"MANIFEST", "snap-*.snap"} {
		if m, err := filepath.Glob(filepath.Join(dir, pattern)); err != nil || len(m) != 1 {
			t.Fatalf("%s: %v (%v), want exactly one", pattern, m, err)
		}
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(m) != 0 {
		t.Fatalf("per-shard directories %v", m)
	}
	t.Logf("%d acknowledged keys over %d checkpoints", n, cps.Load())
}
