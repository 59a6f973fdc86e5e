package txn

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/index"
)

// Tx is one buffered transaction over any index.TxnSession — a local
// Store session or a network connection implementing the same contract.
// Reads record (key, version) observations; writes buffer until Commit.
// Within the transaction, Get is repeatable (the first observation of a
// key is returned again) and reads its own writes.
//
// A Tx is not safe for concurrent use. After Commit it may be reused via
// Reset (RunTxn does this for its retry loop). Its keys, sets and
// indexes live in storage that Reset keeps, so a reused Tx allocates
// nothing once it has held its largest transaction.
type Tx struct {
	ts     index.TxnSession
	keys   []byte // arena holding a copy of every recorded key
	reads  []index.TxnRead
	rvals  []observed // rvals[i] is what reads[i] returned
	rOrder []int32    // read indices sorted by key
	writes []index.TxnWrite
	wOrder []int32 // write indices sorted by key
}

// Begin starts a buffered transaction on ts.
func Begin(ts index.TxnSession) *Tx { return &Tx{ts: ts} }

// Reset discards all buffered state so the Tx can run again.
func (t *Tx) Reset() {
	t.keys = t.keys[:0]
	t.reads = t.reads[:0]
	t.rvals = t.rvals[:0]
	t.rOrder = t.rOrder[:0]
	t.writes = t.writes[:0]
	t.wOrder = t.wOrder[:0]
}

// copyKey copies key into the arena. The copy's capacity ends at its
// length, so nothing appended later writes into it.
func (t *Tx) copyKey(key []byte) []byte {
	n := len(t.keys)
	t.keys = append(t.keys, key...)
	return t.keys[n:len(t.keys):len(t.keys)]
}

// find binary-searches order, a set's indices sorted by key, for key,
// returning its position in order or the position to insert it at.
func find(order []int32, key []byte, keyOf func(i int32) []byte) (int, bool) {
	return slices.BinarySearchFunc(order, key, func(i int32, k []byte) int { return bytes.Compare(keyOf(i), k) })
}

func (t *Tx) readKey(i int32) []byte  { return t.reads[i].Key }
func (t *Tx) writeKey(i int32) []byte { return t.writes[i].Key }

// Get reads key. The first read of each key goes to the store and is
// recorded in the read set; later reads return the same observation.
// Reads of keys this transaction has written return the buffered write.
func (t *Tx) Get(key []byte) (value uint64, found bool, err error) {
	if p, ok := find(t.wOrder, key, t.writeKey); ok {
		w := t.writes[t.wOrder[p]]
		if w.Op == index.TxnDel {
			return 0, false, nil
		}
		return w.Value, true, nil
	}
	p, ok := find(t.rOrder, key, t.readKey)
	if ok {
		r := t.rvals[t.rOrder[p]]
		return r.value, r.found, nil
	}
	val, ver, found, err := t.ts.GetVersion(key)
	if err != nil {
		return 0, false, err
	}
	t.rOrder = slices.Insert(t.rOrder, p, int32(len(t.reads)))
	t.reads = append(t.reads, index.TxnRead{Key: t.copyKey(key), Ver: ver})
	t.rvals = append(t.rvals, observed{value: val, found: found})
	return val, found, nil
}

// Put buffers a write of (key, value); a later write to the same key
// replaces it.
func (t *Tx) Put(key []byte, value uint64) { t.write(index.TxnPut, key, value) }

// Delete buffers a deletion of key.
func (t *Tx) Delete(key []byte) { t.write(index.TxnDel, key, 0) }

func (t *Tx) write(op byte, key []byte, value uint64) {
	p, ok := find(t.wOrder, key, t.writeKey)
	if ok {
		w := &t.writes[t.wOrder[p]]
		w.Op, w.Value = op, value
		return
	}
	t.wOrder = slices.Insert(t.wOrder, p, int32(len(t.writes)))
	t.writes = append(t.writes, index.TxnWrite{Op: op, Key: t.copyKey(key), Value: value})
}

// Reads returns the recorded read set (live until Reset).
func (t *Tx) Reads() []index.TxnRead { return t.reads }

// Writes returns the buffered write set (live until Reset).
func (t *Tx) Writes() []index.TxnWrite { return t.writes }

// Commit submits the transaction. A TxnConflict result leaves the store
// untouched; Reset and re-run to retry.
func (t *Tx) Commit() (index.TxnResult, error) {
	return t.ts.CommitTxn(t.reads, t.writes)
}

// txPool holds RunTxn's transactions between calls, with their storage.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// RunTxn runs fn inside a transaction, retrying from scratch on
// optimistic conflicts: up to attempts tries when attempts > 0,
// indefinitely otherwise. An error from fn aborts without committing
// (nothing buffered ever reached the store). The returned result is the
// final attempt's — check Status: a conflicting final attempt returns
// index.TxnConflict with a nil error. The Tx handed to fn is recycled
// once RunTxn returns, so fn must not keep it.
func RunTxn(ts index.TxnSession, attempts int, fn func(*Tx) error) (index.TxnResult, error) {
	tx := txPool.Get().(*Tx)
	tx.ts = ts
	defer func() {
		tx.ts = nil
		txPool.Put(tx)
	}()
	for i := 0; ; i++ {
		tx.Reset()
		if err := fn(tx); err != nil {
			return index.TxnResult{}, err
		}
		res, err := tx.Commit()
		if err != nil || res.Status == index.TxnCommitted {
			return res, err
		}
		if attempts > 0 && i+1 >= attempts {
			return res, nil
		}
	}
}
