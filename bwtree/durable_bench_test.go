package bwtree

import (
	"encoding/binary"
	"testing"

	"repro/internal/wal"
)

// BenchmarkFoldRecover times the recovery engine (decision pre-scan, tail
// decode + fold, merge, BulkLoad) on both directory shapes it serves: a
// full log with no checkpoint — the path behind the replay gate — and a
// checkpoint snapshot plus a tail of updates.
func BenchmarkFoldRecover(b *testing.B) {
	const n, tail = 500000, 50000
	for _, withCP := range []bool{false, true} {
		name, records := "log-only", n
		if withCP {
			name, records = "snapshot+tail", tail
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			s := d.NewSession()
			buf := make([]byte, 8)
			for i := uint64(0); i < n; i++ {
				binary.BigEndian.PutUint64(buf, i)
				if _, err := s.Insert(buf, i); err != nil {
					b.Fatal(err)
				}
			}
			if withCP {
				if _, err := d.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				for i := uint64(0); i < tail; i++ {
					binary.BigEndian.PutUint64(buf, i*(n/tail))
					if _, err := s.Update(buf, i+1); err != nil {
						b.Fatal(err)
					}
				}
			}
			s.Release()
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &Durable{dir: dir, t: New(DefaultOptions())}
				if _, err := r.rebuild(); err != nil || r.rec.Replayed != records {
					b.Fatalf("rec=%+v err=%v", r.rec, err)
				}
				r.t.Close()
			}
			b.ReportMetric(float64(records), "records/op")
		})
	}
}

// BenchmarkReplayOnly isolates the raw log scan (read + CRC + decode)
// without applying anything, bounding how fast recovery could ever be.
func BenchmarkReplayOnly(b *testing.B) {
	dir := b.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s := d.NewSession()
	buf := make([]byte, 8)
	const n = 500000
	for i := uint64(0); i < n; i++ {
		binary.BigEndian.PutUint64(buf, i)
		if _, err := s.Insert(buf, i); err != nil {
			b.Fatal(err)
		}
	}
	s.Release()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cnt int
		st, err := wal.Replay(dir, 0, func(r wal.Record) error { cnt++; return nil })
		if err != nil || st.Records != n {
			b.Fatalf("st=%+v err=%v", st, err)
		}
	}
}
