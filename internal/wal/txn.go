package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// OpTxn is the transaction record kind (stable on-disk format; never
// renumber): a commit's whole write set rides in one record's blob, in a
// single-tree store and across the partitions of a sharded one alike. The
// record either survives recovery intact or is truncated as a torn tail
// with the rest of the batch, so the write set applies atomically or not
// at all. It reuses the ordinary record frame: the value field carries
// the transaction ID and the key field carries the sub-operation blob, so
// framing, CRC protection, and torn-tail truncation are exactly those of
// single-op records.
const OpTxn byte = 'T'

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

// AppendTxn logs a whole write set as one OpTxn record, with txnID in
// its value field, and returns its LSN (see Append). Atomicity follows
// from framing: the record is one CRC-protected frame, so recovery sees
// all of it or truncates all of it.
func (w *Writer) AppendTxn(txnID uint64, ops []TxnOp) (uint64, error) {
	blob := EncodeTxnOps(nil, ops)
	if 1+8+len(blob) > maxRecordSize {
		return 0, ErrTxnTooLarge
	}
	return w.Append(OpTxn, blob, txnID)
}
