package txn

import (
	"hash/maphash"
	"sync"

	"repro/bwtree"
	"repro/internal/wal"
)

// NewForDurable builds the OCC engine over one durable tree. The engine
// shares the tree's 256 commit-ordering stripes, so transactional
// commits and plain DurableSession writes exclude each other — the two
// paths can be mixed freely on one store.
func NewForDurable(d *bwtree.Durable) *Store {
	return NewStore(&durableBackend{d: d})
}

type durableBackend struct{ d *bwtree.Durable }

func (b *durableBackend) NStripes() int           { return bwtree.NStripes }
func (b *durableBackend) StripeOf(key []byte) int { return b.d.StripeOf(key) }
func (b *durableBackend) Lock(i int)              { b.d.StripeLock(i) }
func (b *durableBackend) Unlock(i int)            { b.d.StripeUnlock(i) }
func (b *durableBackend) TryLock(i int) bool      { return b.d.StripeTryLock(i) }
func (b *durableBackend) MaxRecoveredTxnID() uint64 {
	return b.d.RecoveryStats().MaxTxnID
}

func (b *durableBackend) NewSession() BackendSession {
	return &durableSession{d: b.d, s: b.d.Tree().NewSession()}
}

type durableSession struct {
	d *bwtree.Durable
	s *bwtree.Session
}

func (bs *durableSession) Release() { bs.s.Release() }

func (bs *durableSession) ReadVersion(key []byte) (uint64, uint64, bool) {
	return bs.s.LookupVersion(key)
}

func (bs *durableSession) LogApply(txnID uint64, ops []wal.TxnOp) (func() error, error) {
	// Single log: the whole write set rides one self-contained OpTxn
	// record — atomicity for free from frame CRC + torn-tail truncation.
	lsn, err := bs.d.AppendTxn(wal.OpTxn, txnID, ops)
	if err != nil {
		return nil, err
	}
	applyOps(bs.s, ops)
	if bs.d.SyncOnCommit() {
		return func() error { return bs.d.WaitLSN(lsn) }, nil
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

// NewForTree builds the engine over a plain in-memory tree, with
// engine-private stripes (a plain tree has no commit-ordering locks of
// its own). Transactions serialize correctly against each other;
// non-transactional writers bypass the stripes, so mixing them with
// transactional writers on the same plain tree is unsupported — use a
// durable store for mixed workloads.
func NewForTree(t *bwtree.Tree) *Store {
	return NewStore(&plainBackend{t: t, seed: maphash.MakeSeed()})
}

type plainBackend struct {
	t       *bwtree.Tree
	seed    maphash.Seed
	stripes [bwtree.NStripes]sync.Mutex
}

func (b *plainBackend) NStripes() int { return bwtree.NStripes }
func (b *plainBackend) StripeOf(key []byte) int {
	return int(maphash.Bytes(b.seed, key) & 0xff)
}
func (b *plainBackend) Lock(i int)                { b.stripes[i].Lock() }
func (b *plainBackend) Unlock(i int)              { b.stripes[i].Unlock() }
func (b *plainBackend) TryLock(i int) bool        { return b.stripes[i].TryLock() }
func (b *plainBackend) MaxRecoveredTxnID() uint64 { return 0 }

func (b *plainBackend) NewSession() BackendSession {
	return &plainSession{s: b.t.NewSession()}
}

type plainSession struct{ s *bwtree.Session }

func (bs *plainSession) Release() { bs.s.Release() }

func (bs *plainSession) ReadVersion(key []byte) (uint64, uint64, bool) {
	return bs.s.LookupVersion(key)
}

func (bs *plainSession) LogApply(txnID uint64, ops []wal.TxnOp) (func() error, error) {
	applyOps(bs.s, ops) // nothing to log; memory is the only state
	return nil, nil
}
