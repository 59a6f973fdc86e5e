// Package wal is the durability layer under the Bw-Tree: a segmented,
// CRC32C-framed, append-only write-ahead log with group commit, plus an
// epoch-consistent checkpoint (sorted snapshot file + manifest) and a
// recovery reader that replays the log tail and truncates a torn final
// record.
//
// The paper evaluates the OpenBw-Tree purely in memory, but the design it
// reproduces was built to live inside Deuteronomy/LLAMA with a
// log-structured persistence layer underneath (§2). This package supplies
// the minimal version of that layer for this repository: logical redo
// logging of index operations, not LLAMA's page-level log-structured
// store.
//
// Records are effects, not attempts: a writer appends a record only for
// an operation that took effect, so OpInsert and OpUpdate mean "the key
// now holds value" and OpDelete means "the key is now absent", and replay
// is last-writer-wins per key. Format version 2 (segments and snapshots
// share it) is this meaning; version 1 logged attempts, and its files are
// refused rather than replayed under the wrong rule.
//
// # Log format
//
// The log is a sequence of segment files named wal-<firstLSN>.seg. Each
// segment starts with a 20-byte header:
//
//	magic "BWAL" | version uint32 LE | firstLSN uint64 LE | CRC32C(header[0:16])
//
// followed by records, each framed as
//
//	payloadLen uint32 LE | CRC32C(payload) | payload
//
// with payload
//
//	op byte | value uint64 LE | key bytes
//
// Records carry no explicit LSN: a record's LSN is the segment's firstLSN
// plus its ordinal in the segment, so LSNs are dense and strictly
// increasing across the whole log. A frame whose length and CRC are both
// zero marks clean end-of-log (it also makes a zero-filled preallocated
// tail self-terminating); any other undecodable tail is a torn write from
// a crash and is truncated by recovery.
//
// # Durability contract
//
// Append assigns the LSN and buffers the record; a dedicated flusher
// goroutine writes and fsyncs buffered records in batches (group commit).
// An operation is durable — guaranteed to survive Crash/recovery — only
// once DurableLSN() has reached its LSN, which WaitDurable blocks for.
// Crash() simulates a power failure by discarding everything past the
// last fsync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Op identifies the logged operation. The values are stable on-disk
// format; never renumber.
const (
	OpInsert byte = 'I'
	OpUpdate byte = 'U'
	OpDelete byte = 'D'
)

const (
	segMagic   = "BWAL"
	snapMagic  = "BSNP"
	version    = 2 // records are effects; see the package comment
	headerSize = 20
	frameSize  = 8 // length + crc
	// maxRecordSize bounds payloadLen during decoding so a corrupt length
	// field cannot drive a huge allocation. Keys are index keys; 16 MiB is
	// orders of magnitude beyond any legitimate record.
	maxRecordSize = 16 << 20
)

// castagnoli is the CRC32C table (the polynomial with hardware support on
// current CPUs, and the conventional choice for storage framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Writer. The zero value is usable: 64 MiB
// segments, fsync as soon as the previous fsync completes (group commit
// emerges from fsync latency), no artificial delay.
type Options struct {
	// SegmentSize rotates to a new segment file once the active one
	// exceeds this many bytes (default 64 MiB). Rotation granularity is
	// one flush batch, so segments may overshoot by up to one batch.
	SegmentSize int64
	// GroupCommitInterval, when positive, makes the flusher wait this
	// long after noticing pending records before it fsyncs, trading
	// commit latency for larger batches. Zero means fsync immediately;
	// batching then comes only from appends arriving during the previous
	// fsync.
	GroupCommitInterval time.Duration
	// GroupCommitBytes skips the GroupCommitInterval delay when at least
	// this many bytes are already pending (default 256 KiB): a full batch
	// gains nothing from waiting.
	GroupCommitBytes int
	// NoSync skips fsync entirely: records are durable against process
	// crash once written, but not against power failure. Crash() then
	// treats every written byte as durable. For benchmarks and tests.
	NoSync bool
}

func (o *Options) sanitize() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.SegmentSize < headerSize+frameSize {
		o.SegmentSize = headerSize + frameSize
	}
	if o.GroupCommitBytes <= 0 {
		o.GroupCommitBytes = 256 << 10
	}
	if o.GroupCommitInterval < 0 {
		o.GroupCommitInterval = 0
	}
}

// Record is one decoded log record.
type Record struct {
	LSN   uint64
	Op    byte
	Key   []byte
	Value uint64
}

// appendRecord appends one framed record to dst and returns the extended
// slice.
func appendRecord(dst []byte, op byte, key []byte, value uint64) []byte {
	payloadLen := 1 + 8 + len(key)
	var hdr [frameSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	// CRC is computed over the payload; build payload first in-place.
	off := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, op)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], value)
	dst = append(dst, v[:]...)
	dst = append(dst, key...)
	crc := crc32.Checksum(dst[off+frameSize:], castagnoli)
	binary.LittleEndian.PutUint32(dst[off+4:off+8], crc)
	return dst
}

// decodeStatus classifies the bytes at a decode position.
type decodeStatus uint8

const (
	decodeOK   decodeStatus = iota // a valid record was decoded
	decodeEnd                      // clean end-of-log marker (zero frame) or exact end of data
	decodeTorn                     // truncated or corrupt tail
)

// decodeRecord decodes one framed record from b. n is the number of bytes
// consumed when st == decodeOK. The returned key aliases b.
func decodeRecord(b []byte) (op byte, key []byte, value uint64, n int, st decodeStatus) {
	if len(b) == 0 {
		return 0, nil, 0, 0, decodeEnd
	}
	if len(b) < frameSize {
		return 0, nil, 0, 0, decodeTorn
	}
	payloadLen := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if payloadLen == 0 && crc == 0 {
		return 0, nil, 0, 0, decodeEnd
	}
	// A record payload is at least op + value.
	if payloadLen < 9 || payloadLen > maxRecordSize {
		return 0, nil, 0, 0, decodeTorn
	}
	if len(b) < frameSize+int(payloadLen) {
		return 0, nil, 0, 0, decodeTorn
	}
	payload := b[frameSize : frameSize+int(payloadLen)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, 0, 0, decodeTorn
	}
	op = payload[0]
	value = binary.LittleEndian.Uint64(payload[1:9])
	key = payload[9:]
	return op, key, value, frameSize + int(payloadLen), decodeOK
}

// encodeSegmentHeader renders the 20-byte segment header.
func encodeSegmentHeader(firstLSN uint64) [headerSize]byte {
	var h [headerSize]byte
	copy(h[0:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], version)
	binary.LittleEndian.PutUint64(h[8:16], firstLSN)
	binary.LittleEndian.PutUint32(h[16:20], crc32.Checksum(h[0:16], castagnoli))
	return h
}

// decodeSegmentHeader validates a segment header and returns its firstLSN.
// The CRC is checked before the version, so a torn header never reads as
// a foreign version, and a verified header of another version
// (errSegmentVersion) is a different format, never a torn write.
func decodeSegmentHeader(b []byte) (firstLSN uint64, err error) {
	if len(b) < headerSize {
		return 0, errShortHeader
	}
	if string(b[0:4]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic %q", b[0:4])
	}
	if crc32.Checksum(b[0:16], castagnoli) != binary.LittleEndian.Uint32(b[16:20]) {
		return 0, errors.New("wal: segment header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != version {
		return 0, fmt.Errorf("%w %d", errSegmentVersion, v)
	}
	return binary.LittleEndian.Uint64(b[8:16]), nil
}

var errShortHeader = errors.New("wal: segment shorter than header")
var errSegmentVersion = errors.New("wal: unsupported segment version")

// segmentName returns the file name of the segment whose first record has
// the given LSN. Fixed-width decimal so lexicographic order equals LSN
// order.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstLSN)
}
