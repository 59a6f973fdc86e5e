package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment assembles a raw segment file image: header for firstLSN
// followed by framed records.
func buildSegment(firstLSN uint64, recs ...[]byte) []byte {
	h := encodeSegmentHeader(firstLSN)
	out := append([]byte{}, h[:]...)
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

func rec(op byte, key string, value uint64) []byte {
	return appendRecord(nil, op, []byte(key), value)
}

// TestTailDamage is the table-driven torn-tail matrix: each case mutates
// a well-formed final segment and states what recovery must salvage.
func TestTailDamage(t *testing.T) {
	full := buildSegment(1,
		rec(OpInsert, "aaa", 1),
		rec(OpInsert, "bbb", 2),
		rec(OpInsert, "ccc", 3),
	)
	r3 := rec(OpInsert, "ccc", 3)
	lastStart := len(full) - len(r3)

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantRecs int
		wantTorn bool
		wantErr  bool
	}{
		{"intact", func(b []byte) []byte { return b }, 3, false, false},
		{"torn-mid-payload", func(b []byte) []byte { return b[:len(b)-2] }, 2, true, false},
		{"torn-mid-frame", func(b []byte) []byte { return b[:lastStart+4] }, 2, true, false},
		{"bad-crc-last", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[len(c)-1] ^= 0xff
			return c
		}, 2, true, false},
		{"bad-length-last", func(b []byte) []byte {
			c := append([]byte{}, b...)
			binary.LittleEndian.PutUint32(c[lastStart:], 0xfffffff0) // > maxRecordSize
			return c
		}, 2, true, false},
		{"zero-fill-tail", func(b []byte) []byte {
			// Preallocated-file shape: valid records then zeros. The zero
			// frame is the clean end marker, not damage.
			return append(append([]byte{}, b...), make([]byte, 64)...)
		}, 3, false, false},
		{"garbage-after-zero-fill", func(b []byte) []byte {
			// Zeros terminate the log; what's after them is never read.
			c := append(append([]byte{}, b...), make([]byte, frameSize)...)
			return append(c, 0xde, 0xad, 0xbe, 0xef)
		}, 3, false, false},
		{"header-only", func(b []byte) []byte { return b[:headerSize] }, 0, false, false},
		{"short-header", func(b []byte) []byte { return b[:7] }, 0, true, false},
		{"corrupt-header-crc", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[17] ^= 0xff
			return c
		}, 0, true, false},
		{"empty-file", func(b []byte) []byte { return nil }, 0, false, false},
		{"first-record-torn", func(b []byte) []byte { return b[:headerSize+3] }, 0, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, tc.mutate(append([]byte{}, full...)), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []Record
			st, err := Replay(dir, 0, func(r Record) error {
				got = append(got, Record{LSN: r.LSN, Op: r.Op, Value: r.Value})
				return nil
			})
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.wantRecs {
				t.Fatalf("replayed %d records, want %d (stats %+v)", len(got), tc.wantRecs, st)
			}
			if st.Torn != tc.wantTorn {
				t.Fatalf("Torn = %v, want %v", st.Torn, tc.wantTorn)
			}
			for i, r := range got {
				if r.LSN != uint64(i+1) || r.Value != uint64(i+1) {
					t.Fatalf("record %d = %+v", i, r)
				}
			}
			// The damage must be gone after the first replay: a second pass
			// sees a clean log with the same contents.
			st2, err := Replay(dir, 0, nil)
			if err != nil {
				t.Fatalf("second replay: %v", err)
			}
			if st2.Torn {
				t.Fatal("second replay still torn — truncation not persisted")
			}
			if st2.Records != tc.wantRecs {
				t.Fatalf("second replay %d records, want %d", st2.Records, tc.wantRecs)
			}
		})
	}
}

// TestTailDamageNonFinalSegmentFatal verifies that damage in a non-final
// segment — impossible under the rotation protocol — is a hard error, not
// silent data loss.
func TestTailDamageNonFinalSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	seg1 := buildSegment(1, rec(OpInsert, "aaa", 1), rec(OpInsert, "bbb", 2))
	seg2 := buildSegment(3, rec(OpInsert, "ccc", 3))
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1[:len(seg1)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(3)), seg2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); err == nil {
		t.Fatal("torn non-final segment must be a hard error")
	}
}

// TestCrashPointSweep injects a fault at every possible point in the
// write/sync sequence and checks the durable-prefix property after each:
// recovery must deliver exactly a prefix of the appended records, at
// least through the last acknowledged LSN.
func TestCrashPointSweep(t *testing.T) {
	const nOps = 30
	// First, count the fault opportunities for this workload.
	countOps := func() int {
		n := 0
		restore := SetTestFault(func(op string, size int) (int, error) {
			n++
			return size, nil
		})
		defer restore()
		dir := t.TempDir()
		w, err := NewWriter(dir, Options{SegmentSize: 200}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nOps; i++ {
			lsn, err := w.Append(OpInsert, []byte(fmt.Sprintf("k%04d", i)), uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		return n
	}()
	if countOps == 0 {
		t.Fatal("fault hook never fired")
	}

	errInject := errors.New("injected fault")
	for point := 0; point < countOps; point++ {
		t.Run(fmt.Sprintf("fault-at-%d", point), func(t *testing.T) {
			dir := t.TempDir()
			n := 0
			short := point%3 == 2 // every third point: short write instead of error
			restore := SetTestFault(func(op string, size int) (int, error) {
				n++
				if n-1 == point {
					if short && op == "write" && size > 1 {
						return size / 2, nil
					}
					return 0, errInject
				}
				return size, nil
			})
			defer restore()

			w, err := NewWriter(dir, Options{SegmentSize: 200}, 0)
			if err != nil {
				t.Fatal(err)
			}
			var acked uint64
			for i := 0; i < nOps; i++ {
				lsn, aerr := w.Append(OpInsert, []byte(fmt.Sprintf("k%04d", i)), uint64(i))
				if aerr != nil {
					break // writer already failed
				}
				if werr := w.WaitDurable(lsn); werr != nil {
					break
				}
				acked = lsn
			}
			w.Crash()
			restore() // recovery itself must run without faults

			var prev uint64
			st, err := Replay(dir, 0, func(r Record) error {
				if r.LSN != prev+1 {
					return fmt.Errorf("gap: %d after %d", r.LSN, prev)
				}
				prev = r.LSN
				if r.Value != r.LSN-1 {
					return fmt.Errorf("record %d has value %d", r.LSN, r.Value)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if st.MaxLSN < acked {
				t.Fatalf("acked LSN %d lost: recovered only through %d", acked, st.MaxLSN)
			}
		})
	}
}

// TestSnapshotTruncationDetected truncates a snapshot at several points
// and requires verification to fail at each.
func TestSnapshotTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	i := 0
	m, err := WriteCheckpoint(dir, 5, func() ([]byte, uint64, bool) {
		if i >= 50 {
			return nil, 0, false
		}
		k := []byte(fmt.Sprintf("key-%03d", i))
		i++
		return k, uint64(i), true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Snapshot)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 8, len(orig) / 2, len(orig) - 13, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if next, err := ReadSnapshot(dir, m); err == nil || next != nil {
			t.Fatalf("snapshot truncated to %d bytes passed verification (err=%v)", cut, err)
		}
	}
}

// TestSnapshotCountCheckedAtEnd forges the one damage the open-time
// checks cannot see — a footer and manifest that agree on a record count
// the (CRC-clean) body does not hold — and requires the cursor to end in
// an error instead of io.EOF.
func TestSnapshotCountCheckedAtEnd(t *testing.T) {
	dir := t.TempDir()
	i := 0
	m, err := WriteCheckpoint(dir, 5, func() ([]byte, uint64, bool) {
		if i >= 3 {
			return nil, 0, false
		}
		i++
		return []byte{'a' + byte(i)}, uint64(i), true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Snapshot)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Count++
	binary.LittleEndian.PutUint64(data[len(data)-12:], m.Count)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	err = drainSnapshot(dir, m, func([]byte, uint64) { pairs++ })
	if err == nil || pairs != 3 {
		t.Fatalf("short snapshot: %d pairs, err=%v; want 3 pairs then a count error", pairs, err)
	}
}
