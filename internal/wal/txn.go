package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Transaction record kinds (stable on-disk format; never renumber).
//
// A multi-key transaction commits through one of two shapes:
//
//   - OpTxn: a self-contained commit — the whole write set rides in one
//     record's blob. The record either survives recovery intact or is
//     truncated as a torn tail with the rest of the batch, so the write
//     set applies atomically or not at all. Used whenever every write
//     lands in one log (single tree, or all keys on one shard).
//
//   - OpTxnPrep + OpTxnCommit: the two-phase shape for commits spanning
//     several logs. Each participant logs its local sub-writes in an
//     OpTxnPrep; once every prep is durable, an OpTxnCommit (the
//     decision) is appended to every participant. Recovery applies a
//     prep if and only if a commit record bearing its transaction ID
//     survives in any participating log — presumed abort otherwise.
//
// All three reuse the ordinary record frame: the value field carries the
// transaction ID and the key field carries the sub-operation blob (empty
// for OpTxnCommit), so framing, CRC protection, and torn-tail truncation
// are exactly those of single-op records.
const (
	OpTxn       byte = 'T'
	OpTxnPrep   byte = 'P'
	OpTxnCommit byte = 'C'
)

// TxnOp is one resolved sub-operation of a transactional write set. Op is
// one of OpInsert/OpUpdate/OpDelete, an effect exactly like a standalone
// record of that kind: resolved under the writer's held stripes, it
// cannot fail on apply, and it folds last-writer-wins on replay. The kind
// still tells the applier whether the key was absent (insert) or present
// (update).
type TxnOp struct {
	Op    byte
	Key   []byte
	Value uint64
}

// ErrTxnTooLarge is returned when a write set's encoded blob would exceed
// the maximum decodable record size.
var ErrTxnTooLarge = errors.New("wal: transaction write set exceeds record size limit")

// errTxnOps tags a malformed sub-operation blob.
var errTxnOps = errors.New("wal: malformed transaction op blob")

// EncodeTxnOps appends the sub-operation blob for ops to dst:
//
//	nops uint32 LE | nops × ( op byte | value uint64 LE | klen uint32 LE | key )
func EncodeTxnOps(dst []byte, ops []TxnOp) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i := range ops {
		dst = append(dst, ops[i].Op)
		dst = binary.LittleEndian.AppendUint64(dst, ops[i].Value)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops[i].Key)))
		dst = append(dst, ops[i].Key...)
	}
	return dst
}

// DecodeTxnOps parses a sub-operation blob. Returned keys alias b. Every
// length is bounds-checked against the remaining bytes so a corrupt blob
// (impossible under CRC framing, but fuzzed anyway) fails cleanly rather
// than panicking or over-allocating.
func DecodeTxnOps(b []byte) ([]TxnOp, error) {
	if len(b) < 4 {
		return nil, errTxnOps
	}
	nops := binary.LittleEndian.Uint32(b[0:4])
	b = b[4:]
	// Each op needs at least 13 bytes (op + value + klen); reject counts
	// the remaining bytes cannot possibly satisfy before allocating.
	if uint64(nops)*13 > uint64(len(b)) {
		return nil, errTxnOps
	}
	ops := make([]TxnOp, 0, nops)
	for i := uint32(0); i < nops; i++ {
		if len(b) < 13 {
			return nil, errTxnOps
		}
		op := b[0]
		val := binary.LittleEndian.Uint64(b[1:9])
		klen := binary.LittleEndian.Uint32(b[9:13])
		b = b[13:]
		if uint64(klen) > uint64(len(b)) {
			return nil, errTxnOps
		}
		switch op {
		case OpInsert, OpUpdate, OpDelete:
		default:
			return nil, fmt.Errorf("wal: unknown transaction sub-op %q", op)
		}
		if klen == 0 {
			return nil, errTxnOps
		}
		ops = append(ops, TxnOp{Op: op, Key: b[:klen], Value: val})
		b = b[klen:]
	}
	if len(b) != 0 {
		return nil, errTxnOps
	}
	return ops, nil
}

// AppendTxn assigns one LSN to a whole transactional record — op must be
// OpTxn, OpTxnPrep, or OpTxnCommit — and buffers it for the flusher.
// txnID rides in the record's value field; ops (nil for OpTxnCommit) are
// encoded into the blob. Atomicity follows from framing: the record is
// one CRC-protected frame, so recovery sees all of it or truncates all
// of it.
func (w *Writer) AppendTxn(op byte, txnID uint64, ops []TxnOp) (uint64, error) {
	switch op {
	case OpTxn, OpTxnPrep, OpTxnCommit:
	default:
		return 0, fmt.Errorf("wal: AppendTxn with non-transaction op %q", op)
	}
	// Decision records (OpTxnCommit) carry the canonical empty blob
	// (nops=0), so DecodeTxnOps works uniformly on any transaction record.
	blob := EncodeTxnOps(nil, ops)
	if 1+8+len(blob) > maxRecordSize {
		return 0, ErrTxnTooLarge
	}
	w.mu.Lock()
	if w.closed || w.crashed {
		err := ErrClosed
		if w.crashed {
			err = ErrCrashed
		}
		w.mu.Unlock()
		return 0, err
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appended = lsn
	w.buf = appendRecord(w.buf, op, blob, txnID)
	w.bufRecs++
	w.work.Signal()
	w.mu.Unlock()
	w.appends.Add(1)
	return lsn, nil
}

// IsTxnOp reports whether a record op byte is one of the transaction
// kinds (as opposed to a single-key redo record).
func IsTxnOp(op byte) bool {
	return op == OpTxn || op == OpTxnPrep || op == OpTxnCommit
}
