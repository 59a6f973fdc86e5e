package txn

import (
	"repro/bwtree"
	"repro/internal/wal"
)

// logApply durably logs the resolved write set as one OpTxn record on the
// store's one log, whichever shards it spans, and applies each op in
// memory on its owning shard. The caller holds every write stripe across
// the call. A non-nil wait postpones the durability wait so the caller
// can release the stripes first; an error means the commit outcome is
// unresolved exactly as in bwtree.DurableSession (possible only on a
// closed or crashed log). An in-memory store logs nothing.
func (s *Session) logApply(txnID uint64, ops []wal.TxnOp) (func() error, error) {
	st := s.st
	var lsn uint64
	if st.log != nil {
		var err error
		if lsn, err = st.log.AppendTxn(txnID, ops); err != nil {
			return nil, err
		}
	}
	for i := range ops {
		applyOp(s.sess[st.router.Shard(ops[i].Key)], ops[i])
	}
	if st.log == nil || !st.log.SyncOnCommit() {
		return nil, nil
	}
	return func() error { return st.log.WaitLSN(lsn) }, nil
}

// applyOp installs one resolved op through a tree session. It was
// resolved against tree state under the still-held write stripes, so the
// guarded single-key semantics cannot fail here.
func applyOp(s *bwtree.Session, op wal.TxnOp) {
	switch op.Op {
	case wal.OpInsert:
		s.Insert(op.Key, op.Value)
	case wal.OpUpdate:
		s.Update(op.Key, op.Value)
	case wal.OpDelete:
		s.Delete(op.Key, op.Value)
	}
}
