package txn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/bwtree"
	"repro/internal/index"
	"repro/internal/shard"
)

func tkey(i uint64) []byte {
	var b [8]byte
	return index.EncodeUint64(b[:0], i)
}

// openStore opens a shard.Store of DefaultOptions trees with the given
// shard count, durable under walDir when it is non-empty.
func openStore(t *testing.T, shards int, walDir string) *shard.Store {
	t.Helper()
	ss, err := shard.Open(shard.Options{Shards: shards, Tree: bwtree.DefaultOptions(), WALDir: walDir, SyncOnCommit: walDir != ""})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestTxnBasic(t *testing.T) {
	ss := openStore(t, 1, t.TempDir())
	defer ss.Close()
	st := New(ss)
	s := st.NewSession()
	defer s.Release()

	tx := Begin(s)
	if _, found, _ := tx.Get(tkey(1)); found {
		t.Fatal("fresh store has key 1")
	}
	tx.Put(tkey(1), 10)
	tx.Put(tkey(2), 20)
	// Read-your-writes inside the buffer.
	if v, found, _ := tx.Get(tkey(1)); !found || v != 10 {
		t.Fatalf("read-your-writes: %d %v", v, found)
	}
	res, err := tx.Commit()
	if err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("commit: %+v %v", res, err)
	}
	if len(res.WriteVers) != 2 || res.WriteVers[0] == 0 || res.WriteVers[1] == 0 {
		t.Fatalf("write versions missing: %v", res.WriteVers)
	}

	tx.Reset()
	if v, found, _ := tx.Get(tkey(2)); !found || v != 20 {
		t.Fatalf("committed value lost: %d %v", v, found)
	}
	tx.Delete(tkey(2))
	if _, found, _ := tx.Get(tkey(2)); found {
		t.Fatal("buffered delete visible as present")
	}
	tx.Put(tkey(1), 11)
	if res, err = tx.Commit(); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("second commit: %+v %v", res, err)
	}
	tx.Reset()
	if _, found, _ := tx.Get(tkey(2)); found {
		t.Fatal("delete did not apply")
	}
	if v, _, _ := tx.Get(tkey(1)); v != 11 {
		t.Fatalf("update did not apply: %d", v)
	}
}

func TestTxnConflictOnStaleRead(t *testing.T) {
	ss := openStore(t, 1, "")
	defer ss.Close()
	st := New(ss)
	s1, s2 := st.NewSession(), st.NewSession()
	defer s1.Release()
	defer s2.Release()

	seed := Begin(s1)
	seed.Put(tkey(1), 1)
	if res, err := seed.Commit(); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// t1 observes key 1, then t2 overwrites it and commits; t1's commit
	// must fail validation.
	t1 := Begin(s1)
	if _, _, err := t1.Get(tkey(1)); err != nil {
		t.Fatal(err)
	}
	t1.Put(tkey(2), 2)

	t2 := Begin(s2)
	t2.Put(tkey(1), 99)
	if res, err := t2.Commit(); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("t2: %+v %v", res, err)
	}

	res, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != index.TxnConflict {
		t.Fatalf("stale read committed: %+v", res)
	}
	if st.Stats().Conflicts == 0 {
		t.Fatal("conflict not counted")
	}
	// And an absent-key observation conflicts when the key appears.
	t3 := Begin(s1)
	if _, found, _ := t3.Get(tkey(7)); found {
		t.Fatal("key 7 present")
	}
	t3.Put(tkey(8), 8)
	t4 := Begin(s2)
	t4.Put(tkey(7), 7)
	if res, err := t4.Commit(); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("t4: %+v %v", res, err)
	}
	if res, err := t3.Commit(); err != nil || res.Status != index.TxnConflict {
		t.Fatalf("absence observation survived a concurrent insert: %+v %v", res, err)
	}
}

func TestTxnWriteSkewBlocked(t *testing.T) {
	// Sequential write-skew shape: t1 reads A and B, writes A; t2 reads A
	// and B, writes B. Interleaved so both read before either writes —
	// with correct validation exactly one commits.
	ss := openStore(t, 1, "")
	defer ss.Close()
	st := New(ss)
	s1, s2 := st.NewSession(), st.NewSession()
	defer s1.Release()
	defer s2.Release()

	seed := Begin(s1)
	seed.Put(tkey(1), 50)
	seed.Put(tkey(2), 50)
	if res, err := seed.Commit(); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("seed: %+v %v", res, err)
	}

	t1, t2 := Begin(s1), Begin(s2)
	for _, k := range []uint64{1, 2} {
		if _, _, err := t1.Get(tkey(k)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := t2.Get(tkey(k)); err != nil {
			t.Fatal(err)
		}
	}
	t1.Put(tkey(1), 0)
	t2.Put(tkey(2), 0)
	r1, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := t2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != index.TxnCommitted {
		t.Fatalf("first committer failed: %+v", r1)
	}
	if r2.Status != index.TxnConflict {
		t.Fatalf("write skew: both committed (%+v, %+v)", r1, r2)
	}
}

func TestTxnDuplicateWriteKey(t *testing.T) {
	ss := openStore(t, 1, "")
	defer ss.Close()
	st := New(ss)
	s := st.NewSession()
	defer s.Release()
	_, err := s.CommitTxn(nil, []index.TxnWrite{
		{Op: index.TxnPut, Key: tkey(1), Value: 1},
		{Op: index.TxnPut, Key: tkey(1), Value: 2},
	})
	if err != ErrDuplicateWriteKey {
		t.Fatalf("got %v, want ErrDuplicateWriteKey", err)
	}
	// The pair at the two ends of a 2048-key write set.
	writes := make([]index.TxnWrite, 2048)
	for i := range writes {
		writes[i] = index.TxnWrite{Op: index.TxnPut, Key: tkey(uint64(i)), Value: 1}
	}
	writes[2047].Key = tkey(0)
	if _, err := s.CommitTxn(nil, writes); err != ErrDuplicateWriteKey {
		t.Fatalf("far-apart pair: got %v, want ErrDuplicateWriteKey", err)
	}
	if _, _, found, _ := s.GetVersion(tkey(0)); found {
		t.Fatal("a rejected write set was applied")
	}
}

// TestTxnSharesDurableStripes pins that a shard lends its store's own
// stripe table to the engine, with or without a log: a single-key writer
// holding x's stripe between apply and append must both fail the
// validation of a transaction that read x and block a transaction that
// writes x.
func TestTxnSharesDurableStripes(t *testing.T) {
	for _, tc := range []struct{ name, dir string }{{"memory", ""}, {"durable", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			ss := openStore(t, 1, tc.dir)
			defer ss.Close()
			st := New(ss)
			s := st.NewSession()
			defer s.Release()

			stripes := ss.Durable().Stripes(0)
			x, y := tkey(1), tkey(2)
			for i := uint64(3); stripes.Of(y) == stripes.Of(x); i++ {
				y = tkey(i)
			}
			xi := stripes.Of(x)
			stripes.Lock(xi)
			locked := true
			defer func() {
				if locked {
					stripes.Unlock(xi)
				}
			}()

			tx := Begin(s)
			if _, _, err := tx.Get(x); err != nil {
				t.Fatal(err)
			}
			tx.Put(y, 1)
			if res, err := tx.Commit(); err != nil || res.Status != index.TxnConflict {
				t.Fatalf("read of a held stripe validated: %+v %v", res, err)
			}

			type outcome struct {
				res index.TxnResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				// Release before reporting: once the test has the outcome it may
				// close the store, which must not race this session's release.
				s2 := st.NewSession()
				res, err := s2.CommitTxn(nil, []index.TxnWrite{{Op: index.TxnPut, Key: x, Value: 7}})
				s2.Release()
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				t.Fatalf("write to a held stripe finished: %+v %v", o.res, o.err)
			case <-time.After(50 * time.Millisecond):
			}
			stripes.Unlock(xi)
			locked = false
			if o := <-done; o.err != nil || o.res.Status != index.TxnCommitted {
				t.Fatalf("write after release: %+v %v", o.res, o.err)
			}
			if v, _, found, _ := s.GetVersion(x); !found || v != 7 {
				t.Fatalf("x = %d %v, want 7", v, found)
			}
		})
	}
}

// TestTxnPlainWriteDuringCommit: a plain update of a key that a
// transaction read and writes must wait while the transaction is parked
// between validation and apply, on a store with or without a log, so
// the update lands after the commit instead of being lost under it.
func TestTxnPlainWriteDuringCommit(t *testing.T) {
	for _, tc := range []struct{ name, dir string }{{"memory", ""}, {"durable", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			ss := openStore(t, 2, tc.dir)
			defer ss.Close()
			st := New(ss)
			plain := ss.NewSession()
			defer plain.Release()
			x := tkey(1)
			if ok, err := plain.Insert(x, 5); !ok || err != nil {
				t.Fatalf("insert x: %v %v", ok, err)
			}

			parked, resume := make(chan struct{}), make(chan struct{})
			validateBarrier = func() {
				close(parked)
				<-resume
			}
			defer func() { validateBarrier = nil }()
			committed := make(chan error, 1)
			go func() {
				s := st.NewSession()
				defer s.Release()
				v, ver, _, _ := s.GetVersion(x)
				res, err := s.CommitTxn([]index.TxnRead{{Key: x, Ver: ver}},
					[]index.TxnWrite{{Op: index.TxnPut, Key: x, Value: v + 1}})
				if err == nil && res.Status != index.TxnCommitted {
					err = fmt.Errorf("x=5 -> 6 did not commit: %v", res.Status)
				}
				committed <- err
			}()
			<-parked

			updated := make(chan error, 1)
			go func() {
				_, err := plain.Update(x, 100)
				updated <- err
			}()
			select {
			case err := <-updated:
				updated <- err
				t.Error("a plain update of x returned while a commit that read and writes x was parked")
			case <-time.After(50 * time.Millisecond):
			}
			close(resume)
			if err := <-committed; err != nil {
				t.Fatal(err)
			}
			if err := <-updated; err != nil {
				t.Fatal(err)
			}
			if out := plain.Lookup(x, nil); len(out) != 1 || out[0] != 100 {
				t.Fatalf("x = %v after the commit and the update, want [100]", out)
			}
		})
	}
}

func TestTxnReadOnlyAndStats(t *testing.T) {
	ss := openStore(t, 1, "")
	defer ss.Close()
	st := New(ss)
	s := st.NewSession()
	defer s.Release()
	tx := Begin(s)
	tx.Put(tkey(1), 1)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx.Reset()
	if _, _, err := tx.Get(tkey(1)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit() // read-only: validation is the whole commit
	if err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("read-only commit: %+v %v", res, err)
	}
	stats := st.Stats()
	if stats.Commits != 2 || stats.ReadOnly != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Validate.Total() != 2 {
		t.Fatalf("validation histogram count = %d", stats.Validate.Total())
	}
}

// TestTxnStatsSumSessions checks that Stats adds up the per-session
// counters: N sessions commit concurrently, and the totals equal the
// commits, read-only commits, conflicts and validations they saw, both
// while the sessions are live and after each has released and folded its
// counters into the store's total. Keys are private to a worker, but a
// read's stripe can be another worker's write stripe, so a commit may
// still meet a conservative conflict; it is counted and retried.
func TestTxnStatsSumSessions(t *testing.T) {
	const workers, perWorker = 4, 200
	ss := openStore(t, 2, "")
	defer ss.Close()
	st := New(ss)
	sessions := make([]*Session, workers)
	commits := make([]uint64, workers)
	readOnly := make([]uint64, workers)
	conflicts := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range sessions {
		sessions[w] = st.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := Begin(sessions[w])
			for i := uint64(0); i < perWorker; {
				tx.Reset()
				k := tkey(uint64(w)*perWorker + i)
				if i%4 == 3 {
					if _, _, err := tx.Get(k); err != nil {
						t.Error(err)
						return
					}
				} else {
					tx.Put(k, i+1)
				}
				res, err := tx.Commit()
				if err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
				if res.Status == index.TxnConflict {
					conflicts[w]++
					continue
				}
				commits[w]++
				if i%4 == 3 {
					readOnly[w]++
				}
				i++
			}
		}()
	}
	wg.Wait()
	var wantCommits, wantReadOnly, wantConflicts uint64
	for w := range commits {
		wantCommits += commits[w]
		wantReadOnly += readOnly[w]
		wantConflicts += conflicts[w]
	}
	if wantCommits != workers*perWorker {
		t.Fatalf("%d commits, want %d", wantCommits, workers*perWorker)
	}
	check := func(when string) {
		s := st.Stats()
		if s.Commits != wantCommits || s.ReadOnly != wantReadOnly || s.Conflicts != wantConflicts ||
			s.Validate.Total() != wantCommits {
			t.Errorf("%s: stats commits %d read-only %d conflicts %d validations %d; want %d, %d, %d, %d",
				when, s.Commits, s.ReadOnly, s.Conflicts, s.Validate.Total(), wantCommits, wantReadOnly, wantConflicts, wantCommits)
		}
	}
	check("live sessions")
	for i, s := range sessions {
		s.Release()
		check(fmt.Sprintf("%d of %d released", i+1, workers))
	}
	sessions[0].Release() // a second Release folds nothing twice
	check("after a repeated Release")
}
