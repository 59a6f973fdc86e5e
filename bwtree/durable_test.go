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

	"repro/internal/histcheck"
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
	ds := d.NewSession()
	for i := uint64(0); i < 100; i++ {
		if ok, err := ds.Insert(dkey(i), i); err != nil || !ok {
			t.Fatalf("Insert(%d) = %v, %v", i, ok, err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if ok, err := ds.Update(dkey(i), i+1000); err != nil || !ok {
			t.Fatalf("Update(%d) = %v, %v", i, ok, err)
		}
	}
	for i := uint64(90); i < 100; i++ {
		if ok, err := ds.Delete(dkey(i), i); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	ds.Release()
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
	ds := d.NewSession()
	for i := uint64(0); i < 32; i++ {
		if _, err := ds.Insert(dkey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	ds.Release()
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
	s := d2.NewSession()
	defer s.Release()
	for i := uint64(0); i < 32; i++ {
		if out := s.Lookup(dkey(i), nil); len(out) != 1 || out[0] != i {
			t.Fatalf("key %d = %v", i, out)
		}
	}
}

// TestDurableFailedOpLogsNothing: on a SyncOnCommit store, an insert on a
// present key and an update or delete on an absent one return false, nil
// through a DurableSession, append no record and wait for no fsync; an op
// that takes effect appends exactly one record.
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

// soakSettings reads the -soak.seed, -soak.dur and -soak.workers flags.
var soakSettings = histcheck.SoakFlags()

// crashRun is one acknowledged-write soak on one directory: workers run
// the ownership oracle's mix through durable sessions while checkpoints
// race them, then the log crashes, and half the crashes also tear its
// tail. Each recovery must validate and, with SyncOnCommit, hold every
// acknowledged write and, for a write the crash cut off, its state
// before or after that write: the crash half of durable
// linearizability. The next incarnation goes on from what recovered.
type crashRun struct {
	opts       Options
	keys       int           // keys per worker
	sync       bool          // SyncOnCommit; without it only validation is checked, so crashes is 1
	crashAfter time.Duration // 0: a seeded moment in the middle half of the soak's duration
	checkpoint time.Duration // period of the racing checkpoints; 0: none
	crashes    int
	// observe, when set, watches an incarnation's store while its workers
	// run; the function it returns is called once they have stopped.
	observe func(d *Durable) func()
}

func (r crashRun) run(t *testing.T, seed int64, dur time.Duration, workers int) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	soak := histcheck.NewSoak(workers, r.keys)
	for inc := 0; ; inc++ {
		d, err := OpenDurable(dir, DurableOptions{Tree: r.opts, SyncOnCommit: r.sync})
		if err != nil {
			t.Fatalf("incarnation %d: recovery: %v", inc, err)
		}
		err = d.Tree().Validate()
		if rec := d.RecoveryStats(); err == nil && r.opts.Trace && (rec.Replayed > 0 || rec.TornTail) && d.Tree().Anomalies() == 0 {
			err = fmt.Errorf("recovery replayed %d records (torn tail %v) and left no note in the flight recorder", rec.Replayed, rec.TornTail)
		}
		if err == nil && r.sync {
			err = soak.Sweep(histcheck.TreePairs(d.Tree()))
		}
		if err != nil || inc == r.crashes {
			d.Close()
			if err != nil {
				t.Fatalf("incarnation %d after recovery: %v", inc, err)
			}
			return
		}
		soak.Stop.Store(false)
		soak.Autopsy = func(k []byte) string { return FormatPath(d.Tree().DescendPath(k)) }
		var done func()
		if r.observe != nil {
			done = r.observe(d)
		}
		var crashed atomic.Bool
		var cps sync.WaitGroup
		if r.checkpoint > 0 {
			cps.Add(1)
			go func() {
				defer cps.Done()
				tick := time.NewTicker(r.checkpoint)
				defer tick.Stop()
				for range tick.C {
					if soak.Stop.Load() {
						return
					}
					if _, err := d.Checkpoint(); err != nil && !crashed.Load() {
						t.Errorf("checkpoint before the crash: %v", err)
					}
				}
			}()
		}
		crashAt := r.crashAfter
		if crashAt == 0 {
			crashAt = dur/4 + time.Duration(rng.Int63n(int64(dur/2)))
		}
		crashDone := make(chan struct{})
		crash := time.AfterFunc(crashAt, func() {
			defer close(crashDone)
			crashed.Store(true)
			if err := d.Crash(); err != nil {
				t.Errorf("crash: %v", err)
			}
			soak.Stop.Store(true)
		})
		wseed := rng.Int63()
		err = soak.Run(crashAt+time.Minute, 10*time.Second, func(w int) error {
			s := d.NewSession()
			defer s.Release()
			err := soak.Work(w, s, rand.New(rand.NewSource(wseed+int64(w))), 0)
			if errors.Is(err, wal.ErrCrashed) || errors.Is(err, wal.ErrClosed) {
				return nil // the write in flight is pending
			}
			return err
		})
		if !crash.Stop() {
			<-crashDone
		}
		cps.Wait()
		if done != nil {
			done()
		}
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("incarnation %d: %v", inc, err)
		}
		t.Logf("incarnation %d: crashed at %v", inc, crashAt.Round(time.Millisecond))
		if rng.Intn(2) == 0 {
			junk := make([]byte, 1+rng.Intn(64))
			rng.Read(junk)
			if err := appendGarbageToLastSegment(dir, junk); err != nil {
				t.Fatalf("torn tail: %v", err)
			}
		}
	}
}

// TestDurableCrashRecoverMatrix runs the acknowledged-write soak over
// sync mode x checkpointing x crash timing, then as a seeded soak of the
// SMO-churn geometry with two crashes on one directory.
func TestDurableCrashRecoverMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	seed, dur, workers := soakSettings(t, time.Second, 4)
	for _, tc := range []struct {
		name string
		r    crashRun
	}{
		{"sync-early-crash", crashRun{opts: DefaultOptions(), keys: 200, sync: true, crashAfter: 5 * time.Millisecond, crashes: 1}},
		{"sync-late-crash", crashRun{opts: DefaultOptions(), keys: 200, sync: true, crashAfter: 60 * time.Millisecond, crashes: 1}},
		{"sync-with-checkpoint", crashRun{opts: DefaultOptions(), keys: 200, sync: true, crashAfter: 60 * time.Millisecond, checkpoint: 30 * time.Millisecond, crashes: 1}},
		{"async-with-checkpoint", crashRun{opts: DefaultOptions(), keys: 200, crashAfter: 60 * time.Millisecond, checkpoint: 30 * time.Millisecond, crashes: 1}},
		{"soak", crashRun{opts: histcheck.SoakOptions(), keys: 20000, sync: true, checkpoint: min(time.Second, dur/8), crashes: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.r.run(t, seed, dur, workers) })
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
	ds := d.NewSession()
	for i := uint64(0); i < 20; i++ {
		if _, err := ds.Insert(dkey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	ds.Release()
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
		if out := lookup(d2, dkey(i)); len(out) != 1 || out[0] != i {
			t.Fatalf("key %d = %v", i, out)
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
	ds := d.NewSession()
	if _, err := ds.Insert([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	ds.Release()
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

// lastDigitRouter sends a key to partition (last byte) mod n.
type lastDigitRouter int

func (r lastDigitRouter) Shard(key []byte) int { return int(key[len(key)-1]) % int(r) }
func (r lastDigitRouter) NumShards() int       { return int(r) }
func (r lastDigitRouter) Name() string         { return "last-digit" }

// TestPartitionedDurableRoutes: on a two-partition store a session's
// point operations reach the partition that owns the key, while Scan and
// Tree, which have no one tree to answer from, panic rather than answer
// from one partition and silently drop the other's keys.
func TestPartitionedDurableRoutes(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Router: lastDigitRouter(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.NewSession()
	defer s.Release()
	for i := uint64(0); i < 10; i++ {
		if ok, err := s.Insert(dkey(i), i); !ok || err != nil {
			t.Fatalf("insert %d: %v %v", i, ok, err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		if out := s.Lookup(dkey(i), nil); len(out) != 1 || out[0] != i {
			t.Fatalf("lookup %d = %v", i, out)
		}
	}
	for p, tr := range d.Trees() {
		if n := tr.Count(); n != 5 {
			t.Errorf("partition %d holds %d keys, want 5", p, n)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a partitioned store returned instead of panicking", name)
			}
		}()
		f()
	}
	mustPanic("DurableSession.Scan", func() { s.Scan(dkey(0), 10, func([]byte, uint64) bool { return true }) })
	mustPanic("Tree", func() { d.Tree() })
}

// TestDurableCheckpointStripeBarrier reconstructs the lost-write race
// the stripe sweep in Checkpoint exists to close. Single-key commits
// apply before they append, so only the transaction path has the window:
// a committer that has appended its OpTxn record (so its LSN is <= the
// checkpoint's cpLSN) but has not yet applied it to the tree still holds
// its write stripes. The checkpoint must wait for them before walking —
// otherwise the snapshot misses the write set, and replay (which starts
// strictly after the manifest LSN) skips it too, silently dropping an
// acknowledged commit. It runs on one tree and on the last partition of
// a two-partition store, whose stripes the sweep must cover too.
func TestDurableCheckpointStripeBarrier(t *testing.T) {
	for _, o := range []DurableOptions{{}, {Router: lastDigitRouter(2)}} {
		stripeBarrier(t, o)
	}
}

func stripeBarrier(t *testing.T, o DurableOptions) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	ds := d.NewSession()
	for i := uint64(0); i < 100; i++ {
		if _, err := ds.Insert(dkey(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	ds.Release()

	// Emulate a transaction commit descheduled between its append and
	// its apply: take the write stripe, append, and park.
	key := dkey(1001)
	p, parts := d.owner(key), len(d.Trees())
	if parts > 1 && p == 0 {
		t.Fatal("the parked key must live past the first partition")
	}
	ops := []wal.TxnOp{{Op: wal.OpInsert, Key: key, Value: 42}}
	stripes := d.Stripes(p)
	si := stripes.Of(key)
	stripes.Lock(si)
	if _, err := d.AppendTxn(1, ops); err != nil {
		stripes.Unlock(si)
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
		t.Fatalf("%d partitions: Checkpoint finished while a committer held its stripe: lsn=%d err=%v", parts, r.lsn, r.err)
	default:
	}
	applyTxnOps(d.Trees()[p], ops)
	stripes.Unlock(si)

	if r := <-cpc; r.err != nil {
		t.Fatal(r.err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if out := lookup(d2, key); len(out) != 1 || out[0] != 42 {
		t.Fatalf("%d partitions: acknowledged write lost across checkpoint+reopen: got %v, want [42]", parts, out)
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
		ds := d.NewSession()
		for i := uint64(0); i < 2000; i++ {
			if _, err := ds.Insert(dkey(i), i); err != nil {
				t.Fatal(err)
			}
		}
		ds.Release()
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
// single ops and one-frame transactions over a small keyspace, in four
// directory shapes: log
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
	ds := d.NewSession()

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
			ok, err = ds.Insert(key, v)
		case wal.OpUpdate:
			ok, err = ds.Update(key, v)
		case wal.OpDelete:
			ok, err = ds.Delete(key, v)
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
	txn := func(id uint64, ops []wal.TxnOp) error {
		if _, err := d.AppendTxn(id, ops); err != nil {
			return err
		}
		applyTxnOps(d.Tree(), ops)
		for _, o := range ops {
			model.apply(o)
		}
		logged()
		return nil
	}
	for step := 1; step <= n; step++ {
		if rng.Intn(10) < 6 {
			k := rng.Intn(nkeys)
			err = single([]byte{wal.OpInsert, wal.OpUpdate, wal.OpDelete}[rng.Intn(3)], k, uint64(step)<<8|uint64(k))
		} else {
			err = txn(uint64(step), genOps(step, 1+rng.Intn(3)))
		}
		if err != nil {
			return err
		}
	}
	last := int(d.w.AppendedLSN())
	ds.Release()
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
			ds := d.NewSession()
			for i := uint64(0); i < 50; i++ {
				ds.Insert(dkey(i), i)
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(40); i < 60; i++ { // a tail on, between and past snapshot keys
				ds.Update(dkey(i), i+1)
				ds.Insert(dkey(i), i+2)
			}
			ds.Release()
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
