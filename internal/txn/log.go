package txn

import (
	"repro/bwtree"
	"repro/internal/wal"
)

// logApply durably logs the resolved write set as one atomic commit and
// applies it in memory. The caller holds every write stripe across the
// call. A non-nil wait postpones the durability wait so the caller can
// release the stripes first; an error means the commit outcome is
// unresolved exactly as in bwtree.DurableSession (possible only on a
// closed or crashed log).
//
// Commits whose write set lands on one shard use that shard's log alone
// (a self-contained OpTxn record). Cross-shard commits run two-phase
// with presumed abort: each participant logs an OpTxnPrep carrying its
// local sub-writes; once EVERY prep is durable, an OpTxnCommit decision
// is appended to every participant. Recovery applies a prep iff a
// decision bearing its transaction ID survives in any shard's log
// (shard.Open merges the per-shard decision scans), so the commit takes
// effect on all shards or none — even when the crash lands between the
// per-participant appends. An in-memory store logs nothing.
func (s *Session) logApply(txnID uint64, ops []wal.TxnOp) (func() error, error) {
	st := s.st
	// Group the resolved write set by owning shard.
	groups := make(map[int][]wal.TxnOp, 2)
	for i := range ops {
		sh := st.router.Shard(ops[i].Key)
		groups[sh] = append(groups[sh], ops[i])
	}
	if !st.durable {
		for sh, g := range groups {
			applyOps(s.sess[sh], g)
		}
		return nil, nil
	}

	if len(groups) == 1 {
		// Single participant: self-contained commit on that shard's log,
		// atomic by frame CRC and torn-tail truncation.
		for sh, g := range groups {
			d := st.shards[sh].Durable()
			lsn, err := d.AppendTxn(wal.OpTxn, txnID, g)
			if err != nil {
				return nil, err
			}
			applyOps(s.sess[sh], g)
			if d.SyncOnCommit() {
				return func() error { return d.WaitLSN(lsn) }, nil
			}
		}
		return nil, nil
	}

	// Two-phase, presumed abort. Deterministic participant order keeps
	// the trace readable; correctness doesn't depend on it.
	parts := make([]int, 0, len(groups))
	for sh := range groups {
		parts = append(parts, sh)
	}
	for i := 1; i < len(parts); i++ { // tiny insertion sort; len is shard count
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}

	// Phase A: prepares. An error anywhere before the first decision
	// append is a clean abort — surviving preps have no decision, and
	// recovery presumes them aborted; nothing was applied in memory.
	prepLSN := make([]uint64, len(parts))
	for i, sh := range parts {
		lsn, err := st.shards[sh].Durable().AppendTxn(wal.OpTxnPrep, txnID, groups[sh])
		if err != nil {
			return nil, err
		}
		prepLSN[i] = lsn
	}
	// Every prep must be durable before ANY decision is appended — even
	// on async stores. A decision can become durable the instant it is
	// buffered (group commit runs concurrently), and a durable decision
	// with a lost prep would half-apply the transaction on recovery.
	for i, sh := range parts {
		if err := st.shards[sh].Durable().WaitLSN(prepLSN[i]); err != nil {
			return nil, err
		}
	}

	// Phase B: decisions, one per participant. Once the first append
	// succeeds the commit is decided (a surviving decision anywhere
	// commits every prep), so later errors no longer abort: apply in
	// memory regardless and surface the error as an unresolved-commit
	// infrastructure failure, matching DurableSession semantics.
	decLSN := make([]uint64, len(parts))
	var decErr error
	decided := false
	for i, sh := range parts {
		lsn, err := st.shards[sh].Durable().AppendTxn(wal.OpTxnCommit, txnID, nil)
		if err != nil {
			if !decided {
				return nil, err
			}
			if decErr == nil {
				decErr = err
			}
			continue
		}
		decided = true
		decLSN[i] = lsn
	}
	for _, sh := range parts {
		applyOps(s.sess[sh], groups[sh])
	}
	if decErr != nil {
		return nil, decErr
	}
	if st.shards[parts[0]].Durable().SyncOnCommit() {
		return func() error {
			for i, sh := range parts {
				if decLSN[i] == 0 {
					continue
				}
				if err := st.shards[sh].Durable().WaitLSN(decLSN[i]); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, nil
}

// applyOps installs a resolved write set through a tree session. Each op
// was resolved against tree state under the still-held write stripes, so
// the guarded single-key semantics cannot fail here.
func applyOps(s *bwtree.Session, ops []wal.TxnOp) {
	for i := range ops {
		switch ops[i].Op {
		case wal.OpInsert:
			s.Insert(ops[i].Key, ops[i].Value)
		case wal.OpUpdate:
			s.Update(ops[i].Key, ops[i].Value)
		case wal.OpDelete:
			s.Delete(ops[i].Key, ops[i].Value)
		}
	}
}
