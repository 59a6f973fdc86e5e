package bwtree

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

func dkey(i uint64) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// TestDurableBasicRoundTrip exercises the whole lifecycle on one
// goroutine: write, checkpoint, write a tail, close, reopen, verify.
func TestDurableBasicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if ok, err := d.Insert(dkey(i), i); err != nil || !ok {
			t.Fatalf("Insert(%d) = %v, %v", i, ok, err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if ok, err := d.Update(dkey(i), i+1000); err != nil || !ok {
			t.Fatalf("Update(%d) = %v, %v", i, ok, err)
		}
	}
	for i := uint64(90); i < 100; i++ {
		if ok, err := d.Delete(dkey(i), i); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.RecoveryStats()
	if rec.SnapshotKeys != 100 {
		t.Fatalf("recovery loaded %d snapshot keys, want 100", rec.SnapshotKeys)
	}
	if rec.Replayed != 60 {
		t.Fatalf("recovery replayed %d records, want 60", rec.Replayed)
	}
	s := d2.NewSession()
	defer s.Release()
	var out []uint64
	for i := uint64(0); i < 100; i++ {
		out = s.Lookup(dkey(i), out[:0])
		switch {
		case i < 50:
			if len(out) != 1 || out[0] != i+1000 {
				t.Fatalf("key %d = %v, want [%d]", i, out, i+1000)
			}
		case i < 90:
			if len(out) != 1 || out[0] != i {
				t.Fatalf("key %d = %v, want [%d]", i, out, i)
			}
		default:
			if len(out) != 0 {
				t.Fatalf("key %d = %v, want deleted", i, out)
			}
		}
	}
	if err := d2.Tree().Validate(); err != nil {
		t.Fatalf("Validate after recovery: %v", err)
	}
}

// TestDurableRecoverFreshLog recovers from a log with no checkpoint.
func TestDurableRecoverFreshLog(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if _, err := d.Insert(dkey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec := d2.RecoveryStats(); rec.SnapshotKeys != 0 || rec.Replayed != 32 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	for i := uint64(0); i < 32; i++ {
		out, err := d2.Lookup(dkey(i), nil)
		if err != nil || len(out) != 1 || out[0] != i {
			t.Fatalf("key %d = %v, %v", i, out, err)
		}
	}
}

// TestDurableFailedOpLogsNothing: on a SyncOnCommit store, an insert on a
// present key and an update or delete on an absent one return false, nil
// through both DurableSession and the convenience methods, append no
// record and wait for no fsync; an op that takes effect appends exactly
// one record.
func TestDurableFailedOpLogsNothing(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.NewSession()
	defer s.Release()
	present, absent := dkey(1), dkey(2)
	cases := []struct {
		name string
		op   func() (bool, error)
		want bool
	}{
		{"session insert", func() (bool, error) { return s.Insert(present, 1) }, true},
		{"session insert present", func() (bool, error) { return s.Insert(present, 2) }, false},
		{"session update absent", func() (bool, error) { return s.Update(absent, 3) }, false},
		{"session delete absent", func() (bool, error) { return s.Delete(absent, 0) }, false},
		{"session update", func() (bool, error) { return s.Update(present, 4) }, true},
		{"convenience insert present", func() (bool, error) { return d.Insert(present, 5) }, false},
		{"convenience update absent", func() (bool, error) { return d.Update(absent, 6) }, false},
		{"convenience delete absent", func() (bool, error) { return d.Delete(absent, 0) }, false},
		{"convenience insert", func() (bool, error) { return d.Insert(absent, 7) }, true},
		{"convenience delete", func() (bool, error) { return d.Delete(absent, 0) }, true},
		{"session delete", func() (bool, error) { return s.Delete(present, 0) }, true},
	}
	for _, tc := range cases {
		before := d.WALStats()
		ok, err := tc.op()
		after := d.WALStats()
		if ok != tc.want || err != nil {
			t.Fatalf("%s = %v, %v; want %v, nil", tc.name, ok, err, tc.want)
		}
		var appends uint64
		if tc.want {
			appends = 1
		}
		if got := after.Appends - before.Appends; got != appends {
			t.Errorf("%s appended %d records, want %d", tc.name, got, appends)
		}
		if !tc.want && (after.Syncs != before.Syncs || after.DurableLSN != before.DurableLSN) {
			t.Errorf("%s waited for a flush: syncs %d -> %d, durable LSN %d -> %d",
				tc.name, before.Syncs, after.Syncs, before.DurableLSN, after.DurableLSN)
		}
	}
	t.Logf("%d appends for %d ops", d.WALStats().Appends, len(cases))
}

// workerLog records, per worker, the mirror of acknowledged state plus at
// most one unresolved operation (the one in flight when the crash hit).
type workerLog struct {
	mirror  map[uint64]uint64 // key index -> value; absent = deleted/never inserted
	pending *pendingOp
}

type pendingOp struct {
	op  byte
	key uint64
	val uint64
}

// TestDurableCrashRecoverMatrix is the acknowledged-write property test:
// concurrent writers with SyncOnCommit, a crash at a random moment, then
// recovery must show every acknowledged write and no impossible state.
// The matrix covers sync mode x checkpointing x crash timing.
func TestDurableCrashRecoverMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	for _, tc := range []struct {
		name       string
		sync       bool
		checkpoint bool
		crashAfter time.Duration
	}{
		{"sync-early-crash", true, false, 5 * time.Millisecond},
		{"sync-late-crash", true, false, 60 * time.Millisecond},
		{"sync-with-checkpoint", true, true, 60 * time.Millisecond},
		{"async-with-checkpoint", false, true, 60 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurable(dir, DurableOptions{SyncOnCommit: tc.sync})
			if err != nil {
				t.Fatal(err)
			}

			const workers = 4
			logs := make([]*workerLog, workers)
			var wg sync.WaitGroup
			var stop atomic.Bool
			for wi := 0; wi < workers; wi++ {
				logs[wi] = &workerLog{mirror: make(map[uint64]uint64)}
				wg.Add(1)
				go func(wi int, lg *workerLog) {
					defer wg.Done()
					s := d.NewSession()
					defer s.Release()
					rng := rand.New(rand.NewSource(int64(wi) * 7919))
					for i := 0; !stop.Load(); i++ {
						// Each worker owns the congruence class k = wi mod workers.
						k := uint64(wi) + uint64(rng.Intn(200))*workers
						key := dkey(k)
						old, exists := lg.mirror[k]
						var op byte
						var val uint64
						switch {
						case !exists:
							op, val = wal.OpInsert, uint64(i)<<8|uint64(wi)
						case rng.Intn(3) == 0:
							op, val = wal.OpDelete, old
						default:
							op, val = wal.OpUpdate, uint64(i)<<8|uint64(wi)
						}
						var ok bool
						var err error
						switch op {
						case wal.OpInsert:
							ok, err = s.Insert(key, val)
						case wal.OpUpdate:
							ok, err = s.Update(key, val)
						case wal.OpDelete:
							ok, err = s.Delete(key, old)
						}
						if err != nil {
							// Crashed mid-commit: the op may or may not have
							// become durable. Record it as unresolved.
							lg.pending = &pendingOp{op: op, key: k, val: val}
							return
						}
						if !ok {
							t.Errorf("worker %d: op %c on key %d unexpectedly returned false", wi, op, k)
							return
						}
						if tc.sync {
							// Acknowledged: must survive.
							if op == wal.OpDelete {
								delete(lg.mirror, k)
							} else {
								lg.mirror[k] = val
							}
						} else {
							// Async acks are not crash-durable; track state
							// only for pending-op bookkeeping. A crash may
							// roll back an arbitrary suffix, so this mirror
							// is not checked in async mode.
							if op == wal.OpDelete {
								delete(lg.mirror, k)
							} else {
								lg.mirror[k] = val
							}
						}
					}
				}(wi, logs[wi])
			}

			if tc.checkpoint {
				// Race a checkpoint against the writers.
				go func() {
					time.Sleep(tc.crashAfter / 2)
					d.Checkpoint() // error ignored: may race the crash
				}()
			}
			time.Sleep(tc.crashAfter)
			if err := d.Crash(); err != nil {
				t.Fatal(err)
			}
			stop.Store(true)
			wg.Wait()
			if err := d.Close(); err != nil {
				t.Fatalf("Close after crash: %v", err)
			}

			d2, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer d2.Close()
			if err := d2.Tree().Validate(); err != nil {
				t.Fatalf("Validate after crash recovery: %v", err)
			}
			if !tc.sync {
				return // no per-key guarantees to check in async mode
			}
			s := d2.NewSession()
			defer s.Release()
			var out []uint64
			for wi, lg := range logs {
				pendingKey := uint64(1 << 62) // sentinel: no pending key
				if lg.pending != nil {
					pendingKey = lg.pending.key
				}
				for k, v := range lg.mirror {
					if k == pendingKey {
						continue // checked below with both outcomes allowed
					}
					out = s.Lookup(dkey(k), out[:0])
					if len(out) != 1 || out[0] != v {
						t.Errorf("worker %d: acked key %d = %v, want [%d]", wi, k, out, v)
					}
				}
				if lg.pending != nil {
					// The unresolved op either applied or it did not; both
					// states are legal, anything else is not.
					p := lg.pending
					out = s.Lookup(dkey(p.key), out[:0])
					before, had := lg.mirror[p.key]
					okBefore := (had && len(out) == 1 && out[0] == before) || (!had && len(out) == 0)
					var okAfter bool
					switch p.op {
					case wal.OpDelete:
						okAfter = len(out) == 0
					default:
						okAfter = len(out) == 1 && out[0] == p.val
					}
					if !okBefore && !okAfter {
						t.Errorf("worker %d: pending key %d = %v, want pre-state (%v,%d) or post-state (%c,%d)",
							wi, p.key, out, had, before, p.op, p.val)
					}
				}
			}
		})
	}
}

// TestDurableTornTail writes garbage after the last record and verifies
// recovery truncates it and still sees every synced write.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if _, err := d.Insert(dkey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendGarbageToLastSegment(dir, []byte{0x7, 0x3, 0x1, 0xff, 0xee, 0x55}); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.RecoveryStats()
	if !rec.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rec.Replayed != 20 {
		t.Fatalf("replayed %d, want 20", rec.Replayed)
	}
	for i := uint64(0); i < 20; i++ {
		out, err := d2.Lookup(dkey(i), nil)
		if err != nil || len(out) != 1 || out[0] != i {
			t.Fatalf("key %d = %v, %v", i, out, err)
		}
	}
	// And the truncation is sticky: a third open sees a clean log.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.RecoveryStats().TornTail {
		t.Fatal("torn tail reported again after truncation")
	}
}

// TestDurableCheckpointConcurrentWriters checkpoints while writers run
// and verifies recovery converges to the writers' final state.
func TestDurableCheckpointConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	finals := make([]map[uint64]uint64, workers)
	for wi := 0; wi < workers; wi++ {
		finals[wi] = make(map[uint64]uint64)
		wg.Add(1)
		go func(wi int, final map[uint64]uint64) {
			defer wg.Done()
			s := d.NewSession()
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(wi)))
			for i := 0; i < perWorker; i++ {
				k := uint64(wi) + uint64(rng.Intn(500))*workers
				key := dkey(k)
				if old, ok := final[k]; ok {
					if rng.Intn(4) == 0 {
						if _, err := s.Delete(key, old); err != nil {
							t.Error(err)
							return
						}
						delete(final, k)
					} else {
						v := uint64(i+1) << 8
						if _, err := s.Update(key, v); err != nil {
							t.Error(err)
							return
						}
						final[k] = v
					}
				} else {
					v := uint64(i+1) << 8
					if _, err := s.Insert(key, v); err != nil {
						t.Error(err)
						return
					}
					final[k] = v
				}
			}
		}(wi, finals[wi])
	}
	// Several checkpoints racing the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, err := d.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	s := d2.NewSession()
	defer s.Release()
	var out []uint64
	total := 0
	for wi, final := range finals {
		for k, v := range final {
			out = s.Lookup(dkey(k), out[:0])
			if len(out) != 1 || out[0] != v {
				t.Fatalf("worker %d key %d = %v, want [%d]", wi, k, out, v)
			}
			total++
		}
		// Deleted keys must stay deleted: sample the worker's class.
		for k := uint64(wi); k < 500*workers; k += workers {
			if _, ok := final[k]; ok {
				continue
			}
			out = s.Lookup(dkey(k), out[:0])
			if len(out) != 0 {
				t.Fatalf("worker %d key %d = %v, want absent", wi, k, out)
			}
		}
	}
	if total == 0 {
		t.Fatal("no keys survived — workload bug")
	}
}

// TestSnapshotRefusesDurableDir: writing an LSN-0 snapshot into a
// directory that already holds a store would make the next open replay
// the old log on top of the new tree — Snapshot must refuse.
func TestSnapshotRefusesDurableDir(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	tr := New(DefaultOptions())
	defer tr.Close()
	if _, err := Snapshot(tr, dir); err == nil {
		t.Fatal("Snapshot into a populated durable dir succeeded, want error")
	}
	// A fresh directory is fine.
	if n, err := Snapshot(tr, t.TempDir()); err != nil || n != 0 {
		t.Fatalf("Snapshot into fresh dir: n=%d err=%v", n, err)
	}
}

// TestDurableRejectsNonUnique: the log records one value per key and
// replay depends on unique-key guarded semantics.
func TestDurableRejectsNonUnique(t *testing.T) {
	o := DurableOptions{}
	o.Tree.NonUnique = true
	if _, err := OpenDurable(t.TempDir(), o); err == nil {
		t.Fatal("OpenDurable with NonUnique succeeded, want error")
	}
}

// TestDurableCheckpointStripeBarrier reconstructs the lost-write race
// the stripe sweep in Checkpoint exists to close. Single-key commits
// apply before they append, so only the transaction path has the window:
// a committer that has appended its OpTxn record (so its LSN is <= the
// checkpoint's cpLSN) but has not yet applied it to the tree still holds
// its write stripes. The checkpoint must wait for them before walking —
// otherwise the snapshot misses the write set, and replay (which starts
// strictly after the manifest LSN) skips it too, silently dropping an
// acknowledged commit.
func TestDurableCheckpointStripeBarrier(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := d.Insert(dkey(i), i+1); err != nil {
			t.Fatal(err)
		}
	}

	// Emulate a transaction commit descheduled between its append and
	// its apply: take the write stripe, append, and park.
	key := dkey(1000)
	ops := []wal.TxnOp{{Op: wal.OpInsert, Key: key, Value: 42}}
	st := d.stripe(key)
	st.Lock()
	if _, err := d.AppendTxn(wal.OpTxn, 1, ops); err != nil {
		st.Unlock()
		t.Fatal(err)
	}

	type cpResult struct {
		lsn uint64
		err error
	}
	cpc := make(chan cpResult, 1)
	go func() {
		lsn, err := d.Checkpoint()
		cpc <- cpResult{lsn, err}
	}()

	// The checkpoint reads cpLSN (>= our record's LSN) and must then
	// block in the stripe sweep. Give it time to get there, then finish
	// the commit the way the committer would have.
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-cpc:
		t.Fatalf("Checkpoint finished while a committer held its stripe: lsn=%d err=%v", r.lsn, r.err)
	default:
	}
	applyTxnOps(d, ops)
	st.Unlock()

	if r := <-cpc; r.err != nil {
		t.Fatal(r.err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	out, err := d2.Lookup(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("acknowledged write lost across checkpoint+reopen: got %v, want [42]", out)
	}
}

// TestDurableConcurrentCheckpoints: overlapping Checkpoint calls must
// serialize. Without cpMu, two interleaved WriteCheckpoint calls can
// each publish a manifest and then prune the other's snapshot, leaving
// the surviving manifest pointing at a deleted file — the next
// OpenDurable fails.
func TestDurableConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		s := d.NewSession()
		defer s.Release()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Insert(dkey(i%5000), i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var cwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for i := 0; i < 3; i++ {
				if _, err := d.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cwg.Wait()
	close(stop)
	wwg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after concurrent checkpoints: %v", err)
	}
	defer d2.Close()
	if err := d2.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointCloseRace: Close must wait for an in-flight
// Checkpoint instead of releasing the tree and writer underneath its
// walk. Run under -race this catches the use-after-close.
func TestDurableCheckpointCloseRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		dir := t.TempDir()
		d, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			if _, err := d.Insert(dkey(i), i); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := d.Checkpoint(); err != nil {
					if !errors.Is(err, ErrDurableClosed) && !errors.Is(err, wal.ErrClosed) {
						t.Errorf("checkpoint racing close: %v", err)
					}
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter) * 100 * time.Microsecond)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// diffModel is the sequential oracle of the differential recovery test:
// one map under the tree's unique-key semantics.
type diffModel map[string]uint64

// apply performs o on the model and reports whether it took effect:
// insert only on an absent key, update and delete only on a present one.
func (m diffModel) apply(o wal.TxnOp) bool {
	_, ok := m[string(o.Key)]
	switch {
	case o.Op == wal.OpInsert && !ok, o.Op == wal.OpUpdate && ok:
		m[string(o.Key)] = o.Value
		return true
	case o.Op == wal.OpDelete && ok:
		delete(m, string(o.Key))
		return true
	}
	return false
}

// TestDurableDifferentialRecovery drives recovery with seeded scripts of
// single ops, one-frame transactions and two-phase prepares (committed
// and undecided) over a small keyspace, in four directory shapes: log
// only, snapshot exactly at the manifest LSN, snapshot ahead of the
// manifest LSN (each key cut at its own point between the manifest LSN
// and the end of the log — the fuzzy checkpoint the concurrent tests only
// hit by luck), and snapshot with an empty tail. The single ops, failed
// ones included, go through Durable's write path, so the log holds what
// that path chooses to write; the transaction records and the snapshot
// are laid by hand. The recovered tree must equal the sequential model of
// the whole script. A log of attempts fails this: an update that fails on
// an absent key, then an insert the snapshot already holds, replays with
// the update winning.
func TestDurableDifferentialRecovery(t *testing.T) {
	// Laying a directory out costs a handful of fsyncs; a few seeds in
	// flight at once hide them.
	root := t.TempDir()
	errs := make([]error, 208)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for seed := range errs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			errs[seed] = diffRecoverSeed(fmt.Sprintf("%s/%d", root, seed), seed)
			<-sem
		}()
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		t.Fatalf("%d of %d seeds failed; first: %v", len(failed), len(errs), failed[0])
	}
}

// diffRecoverSeed runs seed's script against a store in dir, lays out
// its checkpoint, recovers it and compares the tree with the model.
func diffRecoverSeed(dir string, seed int) error {
	const nkeys = 24
	rng := rand.New(rand.NewSource(int64(seed)))
	shape := seed % 4 // 0 log only, 1 exact, 2 snapshot ahead, 3 empty tail
	n := 1 + rng.Intn(48)
	wopts := wal.Options{NoSync: true}
	if seed%8 >= 4 {
		wopts.SegmentSize = 1024 // a few segments: the checkpoint prunes some
	}
	d, err := OpenDurable(dir, DurableOptions{WAL: wopts})
	if err != nil {
		return err
	}
	defer d.Close() // no-op once the script has closed it

	model := diffModel{}
	hist := []diffModel{{}} // hist[lsn] = model after the record at lsn
	// logged notes the model after one call to the write path. A call that
	// logged nothing left the model as it was, so overwriting the newest
	// entry is exact.
	logged := func() {
		hist = append(hist[:d.w.AppendedLSN()], maps.Clone(model))
	}
	// single runs one op through Durable's write path and checks its
	// result against the model.
	single := func(op byte, k int, v uint64) error {
		key := []byte(fmt.Sprintf("k%02d", k))
		var ok bool
		var err error
		switch op {
		case wal.OpInsert:
			ok, err = d.Insert(key, v)
		case wal.OpUpdate:
			ok, err = d.Update(key, v)
		case wal.OpDelete:
			ok, err = d.Delete(key, v)
		}
		if want := model.apply(wal.TxnOp{Op: op, Key: key, Value: v}); err == nil && ok != want {
			err = fmt.Errorf("seed %d: op %c %s returned %v, model says %v", seed, op, key, ok, want)
		}
		logged()
		return err
	}
	// genOps resolves m sub-operations against the model, as the
	// transaction engine does under its write stripes: each one takes
	// effect if its record applies.
	genOps := func(step, m int) []wal.TxnOp {
		ops := make([]wal.TxnOp, 0, m)
		for _, k := range rng.Perm(nkeys)[:m] {
			o := wal.TxnOp{Op: wal.OpInsert, Key: []byte(fmt.Sprintf("k%02d", k)), Value: uint64(step)<<8 | uint64(k)}
			if _, ok := model[string(o.Key)]; ok {
				o.Op = []byte{wal.OpUpdate, wal.OpDelete}[rng.Intn(2)]
			}
			ops = append(ops, o)
		}
		return ops
	}
	txn := func(op byte, id uint64, ops []wal.TxnOp, applies bool) error {
		if _, err := d.AppendTxn(op, id, ops); err != nil {
			return err
		}
		if applies {
			applyTxnOps(d, ops)
			for _, o := range ops {
				model.apply(o)
			}
		}
		logged()
		return nil
	}
	var due []uint64 // committed prepares whose decision is not logged yet
	for step := 1; step <= n || len(due) > 0; step++ {
		id := uint64(step)
		switch c := rng.Intn(10); {
		case len(due) > 0 && (step > n || c < 3):
			err = txn(wal.OpTxnCommit, due[0], nil, false)
			due = due[1:]
		case c < 6:
			k := rng.Intn(nkeys)
			err = single([]byte{wal.OpInsert, wal.OpUpdate, wal.OpDelete}[rng.Intn(3)], k, uint64(step)<<8|uint64(k))
		case c < 8:
			err = txn(wal.OpTxn, id, genOps(step, 1+rng.Intn(3)), true)
		case c < 9:
			err = txn(wal.OpTxnPrep, id, genOps(step, 1+rng.Intn(3)), true)
			due = append(due, id)
		default:
			err = txn(wal.OpTxnPrep, id, genOps(step, 1+rng.Intn(3)), false)
		}
		if err != nil {
			return err
		}
	}
	last := int(d.w.AppendedLSN())
	if err := d.Close(); err != nil {
		return err
	}

	cp, snapKeys, lo, hi := 0, 0, 0, 0 // snapshot keys cut in [lo, hi]
	if shape != 0 {
		switch shape {
		case 1:
			cp = rng.Intn(last + 1)
			lo, hi = cp, cp
		case 2:
			if last > 0 {
				lo = rng.Intn(last)
			}
			cp, hi = lo, last
		case 3:
			cp = last
			lo, hi = cp, cp
		}
		k := 0
		if _, err := wal.WriteCheckpoint(dir, uint64(cp), func() ([]byte, uint64, bool) {
			for ; k < nkeys; k++ {
				key := fmt.Sprintf("k%02d", k)
				if v, ok := hist[lo+rng.Intn(hi-lo+1)][key]; ok {
					k++
					snapKeys++
					return []byte(key), v, true
				}
			}
			return nil, 0, false
		}, nil); err != nil {
			return err
		}
	}

	where := fmt.Sprintf("seed %d (shape %d, manifest LSN %d, snapshot cut in [%d,%d] of %d)", seed, shape, cp, lo, hi, last)
	r, err := OpenDurable(dir, DurableOptions{WAL: wopts})
	if err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	defer r.Close()
	if rs := r.RecoveryStats(); rs.Replayed != last-cp || rs.SnapshotKeys != uint64(snapKeys) || rs.LastLSN != uint64(last) {
		return fmt.Errorf("%s: stats %+v", where, rs)
	}
	if err := r.Tree().Validate(); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	got := diffModel{}
	s := r.NewSession()
	defer s.Release()
	s.Scan([]byte{0}, nkeys+1, func(k []byte, v uint64) bool {
		got[string(k)] = v
		return true
	})
	if !maps.Equal(got, model) {
		return fmt.Errorf("%s: recovered %v, model %v", where, got, model)
	}
	return nil
}

// TestDurableRecoverySnapshotErrors damages a checkpointed directory four
// ways — a flipped body byte, caught before the first pair; a forged
// record count, caught only when the cursor runs short mid-merge; and a
// snapshot or a log segment stamped with format version 1 (which logged
// attempts, not effects), each refused at its header before any pair is
// loaded — and requires OpenDurable to fail with the wal error itself, not
// with what BulkLoad makes of a truncated stream, to leave every file as
// it found it (a refused segment is not truncated as a torn one), and to
// leave no goroutine (the half-built tree's included) behind.
func TestDurableRecoverySnapshotErrors(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(snap, seg []byte, m *wal.Manifest)
	}{
		{"crc", "snapshot CRC mismatch", func(snap, _ []byte, _ *wal.Manifest) { snap[len(snap)/2] ^= 0xff }},
		{"short", "snapshot record count", func(snap, _ []byte, m *wal.Manifest) {
			m.Count++
			binary.LittleEndian.PutUint64(snap[len(snap)-12:], m.Count)
		}},
		{"v1-snapshot", "unsupported snapshot version 1", func(snap, _ []byte, _ *wal.Manifest) {
			binary.LittleEndian.PutUint32(snap[4:8], 1)
		}},
		{"v1-segment", "unsupported segment version 1", func(_, seg []byte, _ *wal.Manifest) {
			binary.LittleEndian.PutUint32(seg[4:8], 1) // a valid v1 header: CRC recomputed
			binary.LittleEndian.PutUint32(seg[16:20], crc32.Checksum(seg[0:16], crc32.MakeTable(crc32.Castagnoli)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 50; i++ {
				d.Insert(dkey(i), i)
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(40); i < 60; i++ { // a tail on, between and past snapshot keys
				d.Update(dkey(i), i+1)
				d.Insert(dkey(i), i+2)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			m, _, err := wal.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, m.Snapshot)
			segPath, err := lastSegment(dir)
			if err != nil {
				t.Fatal(err)
			}
			snap, serr := os.ReadFile(path)
			seg, gerr := os.ReadFile(segPath)
			if err := errors.Join(serr, gerr); err != nil {
				t.Fatal(err)
			}
			tc.damage(snap, seg, &m)
			mdata, _ := json.Marshal(m)
			if err := errors.Join(os.WriteFile(path, snap, 0o644), os.WriteFile(segPath, seg, 0o644),
				os.WriteFile(filepath.Join(dir, "MANIFEST"), mdata, 0o644)); err != nil {
				t.Fatal(err)
			}
			files := dirFiles(t, dir)

			before := runtime.NumGoroutine()
			if d, err := OpenDurable(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				if d != nil {
					d.Close()
				}
				t.Fatalf("OpenDurable = %v, want an error containing %q", err, tc.want)
			}
			if after := dirFiles(t, dir); !maps.EqualFunc(files, after, bytes.Equal) {
				t.Fatal("failed open changed the directory")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("failed open left %d goroutines behind", n-before)
			}
		})
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
