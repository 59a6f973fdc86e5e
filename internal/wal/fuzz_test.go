package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to the segment/record decoders the
// way Replay consumes them: decode the header, then walk frames until
// end/torn. The decoders must never panic, never over-read, and every
// record they do accept must re-encode to the exact bytes consumed
// (round-trip: accepted data is real data).
//
// Run with a capped minimizer, as FuzzTreeVsModel does:
//
//	go test -run '^$' -fuzz FuzzWALDecode -fuzztime 30s -fuzzminimizetime 5x ./internal/wal/
func FuzzWALDecode(f *testing.F) {
	// Seeds: a well-formed segment, a torn one, zero fill, header damage.
	good := buildSeedSegment()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), make([]byte, 32)...))
	f.Add(good[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("BWAL"))
	bad := append([]byte{}, good...)
	bad[headerSize+5] ^= 0x40
	f.Add(bad)

	// Transaction-record seeds: a segment holding a commit record between
	// single-key records, a cut through the middle of the txn record's
	// blob, and a blob with a corrupt op count.
	txnSeg := buildSeedTxnSegment()
	f.Add(txnSeg)
	f.Add(txnSeg[:len(txnSeg)-len(txnSeg)/3])
	badTxn := append([]byte{}, txnSeg...)
	badTxn[headerSize+frameSize+10] ^= 0x01 // inside the first blob's nops
	f.Add(badTxn)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The sub-op blob decoder sees CRC-verified bytes in production but
		// must still reject arbitrary garbage cleanly: no panic, no
		// over-read, and accepted blobs re-encode to the consumed bytes.
		if ops, err := DecodeTxnOps(data); err == nil {
			if re := EncodeTxnOps(nil, ops); !bytes.Equal(re, data) {
				t.Fatalf("txn op blob does not round-trip: %d ops", len(ops))
			}
		}
		if _, err := decodeSegmentHeader(data); err != nil {
			return // undecodable header: Replay would truncate/fail, fine
		}
		off := headerSize
		for {
			op, key, value, n, st := decodeRecord(data[off:])
			if st != decodeOK {
				break
			}
			if n <= frameSize || off+n > len(data) {
				t.Fatalf("decodeRecord consumed %d bytes at %d of %d", n, off, len(data))
			}
			// Round-trip: re-encoding the decoded record must reproduce the
			// consumed bytes exactly, or the CRC accepted corrupt data.
			re := appendRecord(nil, op, key, value)
			if !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("record at %d does not round-trip", off)
			}
			// An accepted transaction record's blob must decode or be
			// rejected as a unit — a CRC-valid frame with a blob the
			// decoder tears in half would break commit atomicity.
			if op == OpTxn {
				if ops, err := DecodeTxnOps(key); err == nil {
					if re := EncodeTxnOps(nil, ops); !bytes.Equal(re, key) {
						t.Fatalf("txn record blob at %d does not round-trip", off)
					}
				}
			}
			off += n
		}
	})
}

// buildSeedSegment renders a small valid segment for the fuzz seeds.
func buildSeedSegment() []byte {
	h := encodeSegmentHeader(1)
	out := append([]byte{}, h[:]...)
	out = appendRecord(out, OpInsert, []byte("alpha"), 1)
	out = appendRecord(out, OpUpdate, []byte("alpha"), 2)
	out = appendRecord(out, OpDelete, []byte("alpha"), 2)
	out = appendRecord(out, OpInsert, bytes.Repeat([]byte{0x00}, 40), 3)
	return out
}

// buildSeedTxnSegment renders a valid segment for the fuzz seeds: one
// commit record followed by a single-key record.
func buildSeedTxnSegment() []byte {
	h := encodeSegmentHeader(1)
	out := append([]byte{}, h[:]...)
	blob := EncodeTxnOps(nil, []TxnOp{
		{Op: OpInsert, Key: []byte("acct-a"), Value: 40},
		{Op: OpUpdate, Key: []byte("acct-b"), Value: 60},
		{Op: OpDelete, Key: []byte("acct-c"), Value: 1},
	})
	out = appendRecord(out, OpTxn, blob, 7)
	out = appendRecord(out, OpUpdate, []byte("acct-d"), 9)
	return out
}

// TestTxnTornTailNeverHalfApplies truncates a segment at every byte
// boundary and replays it: the transaction record must come back whole
// (bit-exact write set, decodable blob) or not at all — no truncation
// point may surface a partial write set. This is the framing half of the
// commit-atomicity argument; bwtree's recovery tests cover the apply
// half.
func TestTxnTornTailNeverHalfApplies(t *testing.T) {
	seg := buildSeedTxnSegment()
	want := []TxnOp{
		{Op: OpInsert, Key: []byte("acct-a"), Value: 40},
		{Op: OpUpdate, Key: []byte("acct-b"), Value: 60},
		{Op: OpDelete, Key: []byte("acct-c"), Value: 1},
	}
	for cut := 0; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sawTxn := false
		Replay(dir, 0, func(r Record) error {
			if r.Op != OpTxn {
				return nil
			}
			ops, err := DecodeTxnOps(r.Key)
			if err != nil {
				t.Fatalf("cut %d: replay surfaced a txn record with torn blob: %v", cut, err)
			}
			sawTxn = true
			if len(ops) != len(want) {
				t.Fatalf("cut %d: txn record replayed with %d of %d sub-ops", cut, len(ops), len(want))
			}
			for i := range ops {
				if ops[i].Op != want[i].Op || !bytes.Equal(ops[i].Key, want[i].Key) || ops[i].Value != want[i].Value {
					t.Fatalf("cut %d: sub-op %d mutated: %+v", cut, i, ops[i])
				}
			}
			return nil
		})
		if full := headerSize + frameSize + 9 + len(EncodeTxnOps(nil, want)); cut >= full != sawTxn {
			t.Fatalf("cut %d: sawTxn=%v, record ends at %d", cut, sawTxn, full)
		}
	}
}

// TestFuzzCorpusReplays runs every checked-in corpus entry through the
// full Replay path (not just the decoders) in a scratch directory, so
// regressions caught by fuzzing stay covered in plain `go test`.
func TestFuzzCorpusReplays(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzWALDecode"))
	if err != nil {
		t.Skip("no checked-in corpus")
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWALDecode", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files are in the go-fuzz v1 text format; extract the byte
		// literal crudely — everything between the first and last quote.
		i, j := bytes.IndexByte(data, '"'), bytes.LastIndexByte(data, '"')
		if i < 0 || j <= i {
			continue
		}
		raw, err := strconv.Unquote(string(data[i : j+1]))
		if err != nil {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		// Must terminate without panicking; error or torn are both fine.
		Replay(dir, 0, func(Record) error { return nil })
	}
}
