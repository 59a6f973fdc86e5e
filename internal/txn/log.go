package txn

import (
	"repro/bwtree"
	"repro/internal/wal"
)

// logApply durably logs the resolved write set s.ops as one OpTxn record
// on the store's one log, whichever shards it spans, and applies each op
// in memory on its owning shard, storing the version stamp an insert or
// update published in vers at its write-set index (a delete leaves 0).
// The caller holds every write stripe across the call, and waits for
// the returned LSN (waitDurable) only after releasing them. An error
// means the commit outcome is unresolved exactly as in
// bwtree.DurableSession (possible only on a closed or crashed log). A
// store without a log appends nothing.
func (s *Session) logApply(txnID uint64, vers []uint64) (lsn uint64, err error) {
	st := s.st
	if lsn, err = st.log.AppendTxn(txnID, s.ops); err != nil {
		return 0, err
	}
	for j := range s.ops {
		vers[s.opWrite[j]] = applyOp(s.sess[st.router.Shard(s.ops[j].Key)], s.ops[j])
	}
	return lsn, nil
}

// waitDurable waits until the record at lsn is durable when the store
// acknowledges commits only then.
func (st *Store) waitDurable(lsn uint64) error {
	if !st.log.SyncOnCommit() {
		return nil
	}
	return st.log.WaitLSN(lsn)
}

// applyOp installs one resolved op through a tree session and returns
// the stamp it published, 0 for a delete. The op was resolved against
// tree state under the still-held write stripes, so the guarded
// single-key semantics cannot fail here, and the stamp stays the key's
// until the stripes are released.
func applyOp(s *bwtree.Session, op wal.TxnOp) uint64 {
	switch op.Op {
	case wal.OpInsert:
		s.Insert(op.Key, op.Value)
	case wal.OpUpdate:
		s.Update(op.Key, op.Value)
	case wal.OpDelete:
		s.Delete(op.Key, op.Value)
		return 0
	}
	return s.LastStamp()
}
