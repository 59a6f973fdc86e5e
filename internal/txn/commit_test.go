package txn

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/bwtree"
	"repro/internal/index"
	"repro/internal/shard"
)

// treeOps sums Stats().Ops over the store's trees.
func treeOps(ss *shard.Store) uint64 {
	var n uint64
	for _, sh := range ss.Shards() {
		n += sh.Tree().Stats().Ops
	}
	return n
}

// mustCommit commits and fails the test unless the commit went through.
func mustCommit(t testing.TB, s *Session, reads []index.TxnRead, writes []index.TxnWrite) index.TxnResult {
	t.Helper()
	res, err := s.CommitTxn(reads, writes)
	if err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("commit: %+v %v", res, err)
	}
	return res
}

// observe reads each key through s into a read set.
func observe(t testing.TB, s *Session, keys [][]byte) []index.TxnRead {
	t.Helper()
	reads := make([]index.TxnRead, len(keys))
	for i, k := range keys {
		_, ver, _, err := s.GetVersion(k)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = index.TxnRead{Key: k, Ver: ver}
	}
	return reads
}

// seedKeys commits a put of value v under each of keys.
func seedKeys(t testing.TB, s *Session, keys [][]byte, v uint64) {
	t.Helper()
	writes := make([]index.TxnWrite, len(keys))
	for i, k := range keys {
		writes[i] = index.TxnWrite{Op: index.TxnPut, Key: k, Value: v}
	}
	mustCommit(t, s, nil, writes)
}

// checkStamps asserts that every write res reports a stamp for is the
// stamp its key carries now, and that a put reports one unless elided.
func checkStamps(t testing.TB, s *Session, writes []index.TxnWrite, res index.TxnResult, elided func(i int) bool) {
	t.Helper()
	if len(res.WriteVers) != len(writes) {
		t.Fatalf("WriteVers has %d entries for %d writes", len(res.WriteVers), len(writes))
	}
	for i, w := range writes {
		got := res.WriteVers[i]
		if w.Op == index.TxnDel || elided(i) {
			if got != 0 {
				t.Fatalf("write %d (%c %x) reports stamp %d, want 0", i, w.Op, w.Key, got)
			}
			continue
		}
		v, ver, found, _ := s.GetVersion(w.Key)
		if !found || v != w.Value || got == 0 || got != ver {
			t.Fatalf("write %d (%x=%d): WriteVers %d, key holds %d at stamp %d (found %v)", i, w.Key, w.Value, got, v, ver, found)
		}
	}
}

// TestCommitTreeOps pins how many tree operations one commit runs: each
// key is read once at validation or resolution, and each applied write
// once, with no lookup after the apply.
func TestCommitTreeOps(t *testing.T) {
	ss := openStore(t, 2, "")
	defer ss.Close()
	s := New(ss).NewSession()
	defer s.Release()
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = tkey(uint64(i))
	}
	seedKeys(t, s, keys, 100)
	if sh := ss.Router().Shard(keys[0]); ss.Router().Shard(keys[1]) == sh {
		t.Fatal("want the transfer to span both shards")
	}

	count := func(reads []index.TxnRead, writes []index.TxnWrite) uint64 {
		t.Helper()
		before := treeOps(ss)
		mustCommit(t, s, reads, writes)
		return treeOps(ss) - before
	}

	transfer := observe(t, s, keys[:2])
	if n := count(transfer, []index.TxnWrite{
		{Op: index.TxnPut, Key: keys[0], Value: 90},
		{Op: index.TxnPut, Key: keys[1], Value: 110},
	}); n != 4 {
		t.Errorf("transfer ran %d tree ops, want 4 (2 validations + 2 applies)", n)
	}

	blind := make([]index.TxnWrite, len(keys))
	for i, k := range keys {
		blind[i] = index.TxnWrite{Op: index.TxnPut, Key: k, Value: 200 + uint64(i)}
	}
	if n := count(nil, blind); n != uint64(2*len(keys)) {
		t.Errorf("blind write of %d keys ran %d tree ops, want %d", len(keys), n, 2*len(keys))
	}

	if n := count(observe(t, s, keys), nil); n != uint64(len(keys)) {
		t.Errorf("%d-key audit ran %d tree ops, want %d", len(keys), n, len(keys))
	}
}

// TestRunTxnAllocs pins that a warmed RunTxn allocates nothing but the
// returned WriteVers.
func TestRunTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations and drops sync.Pool items")
	}
	// The default tree options store updates of consolidated leaves in
	// place, so the tree adds no allocation of its own once warm.
	ss, err := shard.Open(shard.Options{Shards: 2, Tree: bwtree.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	s := New(ss).NewSession()
	defer s.Release()
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = tkey(uint64(i))
	}
	seedKeys(t, s, keys, 1000)
	a, b := keys[0], keys[1]

	transfer := func() {
		res, err := RunTxn(s, 0, func(tx *Tx) error {
			av, _, err := tx.Get(a)
			if err != nil {
				return err
			}
			bv, _, err := tx.Get(b)
			if err != nil {
				return err
			}
			tx.Put(a, av-1)
			tx.Put(b, bv+1)
			return nil
		})
		if err != nil || res.Status != index.TxnCommitted {
			t.Fatalf("transfer: %+v %v", res, err)
		}
	}
	audit := func() {
		res, err := RunTxn(s, 0, func(tx *Tx) error {
			for _, k := range keys {
				if _, _, err := tx.Get(k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil || res.Status != index.TxnCommitted {
			t.Fatalf("audit: %+v %v", res, err)
		}
	}
	for range 10 {
		transfer()
		audit()
	}
	if n := testing.AllocsPerRun(100, transfer); n > 1 {
		t.Errorf("transfer allocates %.1f objects per commit, want <= 1 (WriteVers)", n)
	}
	if n := testing.AllocsPerRun(100, audit); n != 0 {
		t.Errorf("audit allocates %.1f objects per commit, want 0", n)
	}
}

// TestWriteVersAreStamps checks WriteVers against the stamps the keys
// carry after each commit, in memory and on a durable 2-shard store,
// with two committers writing interleaved keys of the same leaves. The
// default tree options store updates of bare leaf bases in place; the
// baseline options post every update as a delta.
func TestWriteVersAreStamps(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, name := range []string{"default", "baseline"} {
			t.Run(fmt.Sprintf("durable=%v/%s", durable, name), func(t *testing.T) {
				opts := bwtree.DefaultOptions()
				if name == "baseline" {
					opts = bwtree.BaselineOptions()
				}
				testWriteVersAreStamps(t, durable, opts)
			})
		}
	}
}

func testWriteVersAreStamps(t *testing.T, durable bool, opts bwtree.Options) {
	o := shard.Options{Shards: 2, Tree: opts}
	if durable {
		o.WALDir, o.SyncOnCommit = t.TempDir(), true
	}
	ss, err := shard.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	st := New(ss)
	const perWorker = 64
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := st.NewSession()
			defer s.Release()
			keys := make([][]byte, perWorker) // worker w owns keys ≡ w mod 2
			for i := range keys {
				keys[i] = tkey(uint64(2*i + w))
			}
			last := make(map[string]uint64)
			for round := range 40 {
				// a is read and written, b written blind; they differ,
				// since 6*round+1 is odd.
				a, b := keys[round%perWorker], keys[(7*round+1)%perWorker]
				writes := []index.TxnWrite{
					{Op: index.TxnPut, Key: a, Value: uint64(round + 1)},
					{Op: index.TxnPut, Key: b, Value: uint64(round + 1000)},
				}
				var res index.TxnResult
				var err error
				for res.Status = index.TxnConflict; err == nil && res.Status == index.TxnConflict; {
					// A read of a stripe the other worker holds
					// conflicts; retry it.
					_, ver, _, _ := s.GetVersion(a)
					res, err = s.CommitTxn([]index.TxnRead{{Key: a, Ver: ver}}, writes)
				}
				if err != nil {
					t.Errorf("worker %d round %d: %+v %v", w, round, res, err)
					return
				}
				for i, wr := range writes {
					v, ver, found, _ := s.GetVersion(wr.Key)
					if !found || v != wr.Value || res.WriteVers[i] != ver {
						t.Errorf("worker %d round %d write %d: WriteVers %d, key holds %d at stamp %d", w, round, i, res.WriteVers[i], v, ver)
						return
					}
					if ver <= last[string(wr.Key)] {
						t.Errorf("worker %d: stamp of %x went %d -> %d", w, wr.Key, last[string(wr.Key)], ver)
						return
					}
					last[string(wr.Key)] = ver
				}
			}
		}()
	}
	wg.Wait()
	var inPlace uint64
	for _, sh := range ss.Shards() {
		inPlace += sh.Tree().Stats().InPlaceUpdates
	}
	if opts.UpdateInPlace && inPlace == 0 {
		t.Fatal("no update was stored in place")
	}
}

// TestElidedPutReportsZero pins that a put of the value a key already
// holds installs nothing and reports stamp 0, whether or not the key was
// read.
func TestElidedPutReportsZero(t *testing.T) {
	ss := openStore(t, 2, "")
	defer ss.Close()
	s := New(ss).NewSession()
	defer s.Release()
	a, b := tkey(1), tkey(2)
	seedKeys(t, s, [][]byte{a, b}, 5)
	for _, read := range []bool{false, true} {
		var reads []index.TxnRead
		if read {
			reads = observe(t, s, [][]byte{a, b})
		}
		_, before, _, _ := s.GetVersion(a)
		writes := []index.TxnWrite{
			{Op: index.TxnPut, Key: a, Value: 5},
			{Op: index.TxnPut, Key: b, Value: 6 + uint64(len(reads))},
		}
		res := mustCommit(t, s, reads, writes)
		checkStamps(t, s, writes, res, func(i int) bool { return i == 0 })
		if _, after, _, _ := s.GetVersion(a); after != before {
			t.Fatalf("read=%v: elided put moved the stamp %d -> %d", read, before, after)
		}
	}
	// Every put elided: a commit that installs nothing.
	writes := []index.TxnWrite{{Op: index.TxnPut, Key: a, Value: 5}}
	res := mustCommit(t, s, observe(t, s, [][]byte{a}), writes)
	checkStamps(t, s, writes, res, func(int) bool { return true })
}

// TestLargeCommitResolves commits 2048 reads and 2048 writes that mix
// every resolution: update, insert, elided put, delete and delete of an
// absent key, on read and blind keys.
func TestLargeCommitResolves(t *testing.T) {
	ss := openStore(t, 2, "")
	defer ss.Close()
	s := New(ss).NewSession()
	defer s.Release()
	const n = 2048
	// Keys 0..n-1 are read; keys n/2..n/2+n-1 are written, so half the
	// writes hit read keys and half are blind. Even keys exist up front.
	var present [][]byte
	for i := uint64(0); i < n+n/2; i += 2 {
		present = append(present, tkey(i))
	}
	seedKeys(t, s, present, 7)
	readKeys := make([][]byte, n)
	for i := range readKeys {
		readKeys[i] = tkey(uint64(i))
	}
	reads := observe(t, s, readKeys)
	slices.Reverse(reads) // the engine must not rely on the caller's order
	writes := make([]index.TxnWrite, n)
	want := make(map[string]uint64) // value after the commit; absent if missing
	for i := range writes {
		k := uint64(n/2 + i)
		w := index.TxnWrite{Op: index.TxnPut, Key: tkey(k), Value: 1000 + k}
		switch k % 3 {
		case 0:
			w = index.TxnWrite{Op: index.TxnDel, Key: w.Key}
		case 1:
			if k%2 == 0 {
				w.Value = 7 // elided: already holds 7
			}
		}
		writes[i] = w
	}
	for _, k := range present {
		want[string(k)] = 7
	}
	for _, w := range writes {
		if w.Op == index.TxnDel {
			delete(want, string(w.Key))
		} else {
			want[string(w.Key)] = w.Value
		}
	}
	res := mustCommit(t, s, reads, writes)
	checkStamps(t, s, writes, res, func(i int) bool {
		k := uint64(n/2 + i)
		return k%3 == 1 && k%2 == 0
	})
	for i := uint64(0); i < n+n/2; i++ {
		v, _, found, _ := s.GetVersion(tkey(i))
		if w, ok := want[string(tkey(i))]; found != ok || v != w {
			t.Fatalf("key %d = %d (found %v), want %d (found %v)", i, v, found, w, ok)
		}
	}
}

// BenchmarkCommitTxnSize times a commit that reads n keys and writes
// the same n keys, on an in-memory 2-shard store.
//
//	go test -run '^$' -bench CommitTxnSize -benchmem -count 10 ./internal/txn/
func BenchmarkCommitTxnSize(b *testing.B) {
	for _, n := range []int{2, 64, 2048} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			ss, err := shard.Open(shard.Options{Shards: 2, Tree: bwtree.DefaultOptions()})
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			s := New(ss).NewSession()
			defer s.Release()
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = tkey(uint64(i))
			}
			seedKeys(b, s, keys, 1)
			reads := observe(b, s, keys)
			writes := make([]index.TxnWrite, n)
			for i, k := range keys {
				writes[i] = index.TxnWrite{Op: index.TxnPut, Key: k}
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for i := range writes {
					writes[i].Value = uint64(it) + 2
				}
				res, err := s.CommitTxn(reads, writes)
				if err != nil || res.Status != index.TxnCommitted {
					b.Fatalf("commit: %+v %v", res, err)
				}
				for i, v := range res.WriteVers {
					reads[i].Ver = v
				}
			}
		})
	}
}
