package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// appendN appends n records keyed key-<i> with value base+i and returns
// the last LSN.
func appendN(t *testing.T, w *Writer, n int, base uint64) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := w.Append(OpInsert, []byte(fmt.Sprintf("key-%06d", i)), base+uint64(i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	return last
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		op  byte
		key string
		val uint64
	}{
		{OpInsert, "alpha", 1},
		{OpUpdate, "alpha", 2},
		{OpInsert, "beta", 3},
		{OpDelete, "alpha", 2},
		{OpInsert, string(bytes.Repeat([]byte{0xff}, 300)), 4}, // long key
	}
	for i, o := range ops {
		lsn, err := w.Append(o.op, []byte(o.key), o.val)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("LSN = %d, want %d (dense from 1)", lsn, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	st, err := Replay(dir, 0, func(r Record) error {
		k := make([]byte, len(r.Key))
		copy(k, r.Key)
		got = append(got, Record{LSN: r.LSN, Op: r.Op, Key: k, Value: r.Value})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != len(ops) || st.Torn {
		t.Fatalf("stats = %+v, want %d records, not torn", st, len(ops))
	}
	if st.MaxLSN != uint64(len(ops)) || st.FirstLSN != 1 || st.LastLSN != uint64(len(ops)) {
		t.Fatalf("LSN bounds wrong: %+v", st)
	}
	for i, o := range ops {
		r := got[i]
		if r.LSN != uint64(i+1) || r.Op != o.op || string(r.Key) != o.key || r.Value != o.val {
			t.Fatalf("record %d = %+v, want %+v", i, r, o)
		}
	}
}

func TestReplayAfterLSN(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several files so the skip optimization is
	// exercised across boundaries.
	w, err := NewWriter(dir, Options{SegmentSize: 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	// Wait out each record so every append is its own flush batch,
	// guaranteeing rotations actually happen at the tiny segment size.
	for i := 0; i < n; i++ {
		lsn, err := w.Append(OpInsert, []byte(fmt.Sprintf("key-%06d", i)), 1000+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	for _, after := range []uint64{0, 1, 37, 99, 100, 150} {
		var first, last uint64
		var cnt int
		st, err := Replay(dir, after, func(r Record) error {
			if cnt == 0 {
				first = r.LSN
			}
			last = r.LSN
			cnt++
			return nil
		})
		if err != nil {
			t.Fatalf("after=%d: %v", after, err)
		}
		want := n - int(after)
		if want < 0 {
			want = 0
		}
		if cnt != want {
			t.Fatalf("after=%d: delivered %d records, want %d", after, cnt, want)
		}
		if want > 0 && (first != after+1 || last != n) {
			t.Fatalf("after=%d: delivered [%d,%d], want [%d,%d]", after, first, last, after+1, n)
		}
		if st.MaxLSN != n {
			t.Fatalf("after=%d: MaxLSN = %d, want %d", after, st.MaxLSN, n)
		}
	}
}

// TestGroupCommitBatches: on the default path (no coalescing window)
// everything appended while an fsync runs commits in the next batch. The
// first fsync is parked until all workers have appended once, so at
// least one later batch carries several records and the mean batch
// exceeds one record, however the goroutines are scheduled.
func TestGroupCommitBatches(t *testing.T) {
	const workers, per = 8, 50
	var appended sync.WaitGroup
	appended.Add(workers)
	var parked sync.Once
	restore := SetTestFault(func(op string, size int) (int, error) {
		if op == "sync" {
			parked.Do(appended.Wait)
		}
		return size, nil
	})
	defer restore()
	w, err := NewWriter(t.TempDir(), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(OpInsert, []byte(fmt.Sprintf("w%d-%d", g, i)), uint64(i))
				if i == 0 {
					appended.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.WaitDurable(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.DurableLSN != workers*per {
		t.Fatalf("DurableLSN = %d, want %d", st.DurableLSN, workers*per)
	}
	if st.Batch.Total() == 0 {
		t.Fatal("no batches recorded")
	}
	if mean := st.Batch.Mean(); mean <= 1.0 {
		t.Errorf("group commit never batched: mean records/fsync = %.2f", mean)
	}
	t.Logf("%d batches, mean %.2f records/fsync", st.Batch.Total(), st.Batch.Mean())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := appendN(t, w, 50, 0)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != acked {
		t.Fatalf("DurableLSN = %d, want %d", got, acked)
	}
	// Stall the flusher so the next appends stay buffered, then crash.
	restore := SetTestFault(func(op string, size int) (int, error) {
		if op == "sync" {
			time.Sleep(50 * time.Millisecond)
		}
		return size, nil
	})
	for i := 0; i < 20; i++ {
		if _, err := w.Append(OpInsert, []byte(fmt.Sprintf("lost-%d", i)), 9); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Crash(); err != nil {
		t.Fatal(err)
	}
	restore()
	if _, err := w.Append(OpInsert, []byte("after"), 1); err != ErrCrashed {
		t.Fatalf("Append after crash = %v, want ErrCrashed", err)
	}

	st, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every acked LSN survives; nothing beyond the last fsync may. (Records
	// between acked and the crash may or may not have been flushed by a
	// racing batch; with the stalled fsync they were not.)
	if st.MaxLSN < acked {
		t.Fatalf("MaxLSN = %d after crash, acked prefix %d lost", st.MaxLSN, acked)
	}
	if st.MaxLSN > w.DurableLSN() {
		t.Fatalf("MaxLSN = %d exceeds DurableLSN %d: unacked data survived fsync boundary", st.MaxLSN, w.DurableLSN())
	}
}

func TestCheckpointRecoverPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{SegmentSize: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 80, 0)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint state: pretend the tree holds keys 0..79 (values = i).
	i := 0
	preCommitRan := false
	m, err := WriteCheckpoint(dir, w.AppendedLSN(), func() ([]byte, uint64, bool) {
		if i >= 80 {
			return nil, 0, false
		}
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := uint64(i)
		i++
		return k, v, true
	}, func() error { preCommitRan = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !preCommitRan {
		t.Fatal("preCommit was not invoked")
	}
	if m.LSN != 80 || m.Count != 80 {
		t.Fatalf("manifest = %+v", m)
	}

	// Prune should have removed segments fully covered by the checkpoint.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("prune left %d segments, want 1 (the active one)", len(segs))
	}

	// Tail writes after the checkpoint.
	for j := 0; j < 10; j++ {
		if _, err := w.Append(OpInsert, []byte(fmt.Sprintf("tail-%d", j)), 100+uint64(j)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: manifest -> snapshot -> tail replay.
	m2, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok=%v err=%v", ok, err)
	}
	if m2 != m {
		t.Fatalf("manifest round-trip: %+v != %+v", m2, m)
	}
	var snapKeys int
	prev := ""
	if err := drainSnapshot(dir, m2, func(k []byte, v uint64) {
		if string(k) <= prev {
			t.Fatalf("snapshot keys not strictly ascending: %q after %q", k, prev)
		}
		prev = string(k)
		if v != uint64(snapKeys) {
			t.Fatalf("snapshot value %d, want %d", v, snapKeys)
		}
		snapKeys++
	}); err != nil {
		t.Fatal(err)
	}
	if snapKeys != 80 {
		t.Fatalf("snapshot delivered %d keys, want 80", snapKeys)
	}
	var tail []string
	st, err := Replay(dir, m2.LSN, func(r Record) error {
		tail = append(tail, string(r.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 || st.FirstLSN != 81 || st.LastLSN != 90 {
		t.Fatalf("tail replay stats = %+v", st)
	}
	for j, k := range tail {
		if k != fmt.Sprintf("tail-%d", j) {
			t.Fatalf("tail[%d] = %q", j, k)
		}
	}
}

func TestWriterResumesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 5, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(dir, Options{}, st.MaxLSN+1)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(OpInsert, []byte("resumed"), 42)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("resumed LSN = %d, want 6", lsn)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 6 || st2.MaxLSN != 6 || st2.Segments != 2 {
		t.Fatalf("after resume: %+v", st2)
	}
}

func TestEmptyDirReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Replay(dir, 0, func(Record) error { t.Fatal("unexpected record"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.MaxLSN != 0 {
		t.Fatalf("empty dir: %+v", st)
	}
	// Also a directory that does not exist at all.
	st, err = Replay(filepath.Join(dir, "nope"), 0, nil)
	if err != nil || st.Records != 0 {
		t.Fatalf("missing dir: %+v, %v", st, err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	i := 0
	m, err := WriteCheckpoint(dir, 3, func() ([]byte, uint64, bool) {
		if i >= 10 {
			return nil, 0, false
		}
		k := []byte(fmt.Sprintf("k%02d", i))
		i++
		return k, uint64(i), true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Snapshot)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The CRC covers the whole body, so the damage is caught at open,
	// before the cursor hands out a single pair.
	if snap, err := ReadSnapshot(dir, m); err == nil || snap != nil {
		t.Fatalf("corrupt snapshot passed verification (err=%v)", err)
	}
}

// drainSnapshot opens m's snapshot and pulls its cursor to the end,
// passing each pair to fn (nil just verifies).
func drainSnapshot(dir string, m Manifest, fn func(key []byte, value uint64)) error {
	snap, err := ReadSnapshot(dir, m)
	if err != nil {
		return err
	}
	next := snap.Cursor()
	for {
		k, v, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if fn != nil {
			fn(k, v)
		}
	}
}
