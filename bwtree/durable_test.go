package bwtree

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
// the stripe sweep in Checkpoint exists to close: a committer that has
// appended its record (so its LSN is <= the checkpoint's cpLSN) but has
// not yet applied it to the tree still holds its stripe lock. The
// checkpoint must wait for that stripe before walking — otherwise the
// snapshot misses the op, and replay (which starts strictly after the
// manifest LSN) skips it too, silently dropping an acknowledged write.
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

	// Emulate DurableSession.commit descheduled between Append and
	// apply: take the stripe, append, and park.
	key := dkey(1000)
	st := d.stripe(key)
	st.Lock()
	if _, err := d.w.Append(wal.OpInsert, key, 42); err != nil {
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
	s := d.t.NewSession()
	s.Insert(key, 42)
	s.Release()
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
// one map under the guarded unique-key semantics.
type diffModel map[string]uint64

func (m diffModel) apply(ops []wal.TxnOp) {
	for _, o := range ops {
		_, ok := m[string(o.Key)]
		switch o.Op {
		case wal.OpInsert:
			if !ok {
				m[string(o.Key)] = o.Value
			}
		case wal.OpUpdate:
			if ok {
				m[string(o.Key)] = o.Value
			}
		case wal.OpDelete:
			delete(m, string(o.Key))
		}
	}
}

// TestDurableDifferentialRecovery drives recovery with seeded scripts of
// single ops, one-frame transactions and two-phase prepares (committed
// and undecided) over a small keyspace, laid out on disk by hand in four
// shapes: log only, snapshot exactly at the manifest LSN, snapshot ahead
// of the manifest LSN (each key cut at its own point in (i, j] — the
// fuzzy checkpoint the concurrent tests only hit by luck), and snapshot
// with an empty tail. The recovered tree must equal the sequential model
// of the whole script.
//
// One pattern is kept out of the fuzzy window: an update that fails (key
// absent) followed by an insert the snapshot already reflects. The log
// records attempts, not outcomes, so replaying that pair over the newer
// snapshot lets the update win — inherent to the record format, whatever
// engine replays it (see DESIGN.md, Recovery). Failed updates outside
// the window, and failed inserts and deletes anywhere, stay in.
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
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// diffRecoverSeed builds seed's script and directory, recovers it and
// compares the tree with the model.
func diffRecoverSeed(dir string, seed int) error {
	const nkeys = 10
	rng := rand.New(rand.NewSource(int64(seed)))
	shape := seed % 4 // 0 log only, 1 exact, 2 snapshot ahead, 3 empty tail
	n := 1 + rng.Intn(48)
	lo, hi := n+1, n+1 // fuzzy window (lo, hi] in LSNs; empty unless shape 2
	if shape == 2 {
		lo = rng.Intn(n)
		hi = lo + 1 + rng.Intn(n-lo)
	}

	type rec struct {
		op  byte
		id  uint64
		ops []wal.TxnOp
	}
	var script []rec
	model := diffModel{}
	hist := []diffModel{{}} // hist[lsn] = model after record lsn
	genOps := func(m int, applies bool) []wal.TxnOp {
		lsn := len(script) + 1
		ops := make([]wal.TxnOp, 0, m)
		for _, k := range rng.Perm(nkeys)[:m] {
			o := wal.TxnOp{
				Op:    []byte{wal.OpInsert, wal.OpUpdate, wal.OpDelete}[rng.Intn(3)],
				Key:   []byte(fmt.Sprintf("k%02d", k)),
				Value: uint64(lsn)<<8 | uint64(k),
			}
			if _, ok := model[string(o.Key)]; applies && !ok && o.Op == wal.OpUpdate && lsn > lo && lsn <= hi {
				o.Op = wal.OpInsert
			}
			ops = append(ops, o)
		}
		return ops
	}
	emit := func(r rec, applies bool) {
		script = append(script, r)
		if applies {
			model.apply(r.ops)
		}
		hist = append(hist, maps.Clone(model))
	}
	var due []uint64 // committed prepares whose decision is not logged yet
	for id := uint64(1); len(script) < n || len(due) > 0; id++ {
		switch c := rng.Intn(10); {
		case len(due) > 0 && (len(script) >= n || c < 3):
			emit(rec{op: wal.OpTxnCommit, id: due[0]}, false)
			due = due[1:]
		case c < 6:
			ops := genOps(1, true)
			emit(rec{op: ops[0].Op, ops: ops}, true)
		case c < 8:
			emit(rec{op: wal.OpTxn, id: id, ops: genOps(1+rng.Intn(3), true)}, true)
		case c < 9:
			emit(rec{op: wal.OpTxnPrep, id: id, ops: genOps(1+rng.Intn(3), true)}, true)
			due = append(due, id)
		default:
			emit(rec{op: wal.OpTxnPrep, id: id, ops: genOps(1+rng.Intn(3), false)}, false)
		}
	}
	last := len(script)

	wopts := wal.Options{NoSync: true}
	if seed%8 >= 4 {
		wopts.SegmentSize = 1024 // a few segments: the checkpoint prunes some
	}
	w, err := wal.NewWriter(dir, wopts, 1)
	if err != nil {
		return err
	}
	for _, r := range script {
		if wal.IsTxnOp(r.op) {
			_, err = w.AppendTxn(r.op, r.id, r.ops)
		} else {
			_, err = w.Append(r.op, r.ops[0].Key, r.ops[0].Value)
		}
		if err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	cp, snapKeys := 0, 0
	if shape != 0 {
		switch shape {
		case 1:
			cp = rng.Intn(last + 1)
			lo, hi = cp, cp
		case 2:
			cp = lo
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

	where := fmt.Sprintf("seed %d (shape %d, manifest LSN %d, window (%d,%d] of %d)", seed, shape, cp, lo, hi, last)
	d, err := OpenDurable(dir, DurableOptions{WAL: wopts})
	if err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	defer d.Close()
	if rs := d.RecoveryStats(); rs.Replayed != last-cp || rs.SnapshotKeys != uint64(snapKeys) || rs.LastLSN != uint64(last) {
		return fmt.Errorf("%s: stats %+v", where, rs)
	}
	if err := d.Tree().Validate(); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	got := diffModel{}
	s := d.NewSession()
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

// TestDurableRecoverySnapshotErrors damages a checkpointed directory two
// ways — a flipped body byte, caught before the first pair, and a forged
// record count, caught only when the cursor runs short mid-merge — and
// requires OpenDurable to fail with the wal error itself, not with what
// BulkLoad makes of a truncated stream, and to leave no goroutine (the
// half-built tree's included) behind.
func TestDurableRecoverySnapshotErrors(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(snap []byte, m *wal.Manifest)
	}{
		{"crc", "snapshot CRC mismatch", func(snap []byte, _ *wal.Manifest) { snap[len(snap)/2] ^= 0xff }},
		{"short", "snapshot record count", func(snap []byte, m *wal.Manifest) {
			m.Count++
			binary.LittleEndian.PutUint64(snap[len(snap)-12:], m.Count)
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
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(snap, &m)
			mdata, _ := json.Marshal(m)
			if err := errors.Join(os.WriteFile(path, snap, 0o644), os.WriteFile(filepath.Join(dir, "MANIFEST"), mdata, 0o644)); err != nil {
				t.Fatal(err)
			}

			before := runtime.NumGoroutine()
			if d, err := OpenDurable(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				if d != nil {
					d.Close()
				}
				t.Fatalf("OpenDurable = %v, want an error containing %q", err, tc.want)
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
