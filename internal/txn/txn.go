// Package txn layers optimistic multi-key transactions over the sharded
// store (shard.Store: one bwtree.Durable, logged or not, whose
// partitions are the shards) with Silo-style OCC validation (Tu et al.,
// SOSP 2013) and WAL-atomic commit.
//
// # Protocol
//
// A transaction reads through versioned lookups (every published leaf
// record carries a stamp from a tree-global counter; see
// core.Session.LookupVersion) and buffers its writes. Commit then runs,
// touching each key's tree once per phase:
//
//  1. Lock the write set's stripes in sorted global order: one
//     bwtree.Stripes table per shard, the same table the store orders
//     its single-key commits with, with or without a log, so
//     transactional and plain writers exclude each other.
//  2. Validate the read set: try-lock each read stripe not already held
//     (a failed try is a conservative abort — never block on a reader's
//     behalf, never deadlock), then recheck that each key still carries
//     the version the transaction observed, keeping the value and
//     presence the recheck read. Absent keys validate at version 0.
//  3. Resolve the write set into guarded sub-operations
//     (insert/update/delete) under the held locks: a key that was also
//     read resolves against what step 2 read (its write stripe has been
//     held since step 1), and only a blind write looks its key up. Append
//     one WAL record spanning all of them (nothing without a log), apply
//     in memory, taking each write's version stamp from the apply itself
//     (core.Session.LastStamp), and release.
//
// Deadlock freedom: write stripes are acquired in sorted order and read
// stripes only with try-lock, so no cycle of waits can form. Atomicity
// across a crash comes from the log record being a single CRC-framed
// entry — recovery replays all of it or truncates all of it (see
// wal.OpTxn). A durable store's shards share one log, so a commit
// spanning shards is still one record.
//
// Serializability: validation happens while every write stripe is held,
// so the commit point is atomic; a read validated at the commit point
// either still holds its observed version forever-after-this-instant or
// the transaction aborts. This is exactly Silo's argument, with stripe
// try-locks standing in for per-record lock words. Plain single-key
// writes (bwtree.DurableSession) hold the same stripe across their apply,
// with or without a log, so they serialize with commits as well.
package txn

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/bwtree"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// ErrDuplicateWriteKey is returned by CommitTxn when the write set names
// one key twice; buffer writes through Tx to coalesce them instead.
var ErrDuplicateWriteKey = errors.New("txn: duplicate key in write set")

// validateBarrier, when non-nil, runs after read validation succeeds and
// before the write set is resolved and logged. Tests use it to hold two
// racing commits at the validated-but-unapplied point — the
// deterministic schedule that exposes write skew when the txnbug build
// tag disables read-stripe locking.
var validateBarrier func()

// Store is the OCC engine over one shard.Store. Safe for any number of
// concurrent Sessions.
type Store struct {
	router shard.Router
	// stripes holds every shard's commit-ordering table, the store's own,
	// so transactional and single-key writers exclude each other. Global
	// stripe i is stripe i%NStripes of shard i/NStripes, so sorted-order
	// acquisition is one deadlock-free total order across shards.
	stripes []*bwtree.Stripes
	log     *bwtree.Durable // the store; it logs nothing in memory

	mu       sync.Mutex // guards sessions and closed (cold path)
	sessions map[*Session]struct{}
	closed   Stats // counters folded in from released sessions

	// Every commit writes nextID, and every stripe lookup reads the
	// fields above: the pad keeps them on different cache lines, so two
	// committers do not invalidate each other's reads. IDs stay shared so
	// they are unique across sessions and recoveries; the commit counters
	// live in each Session.
	_      [64]byte
	nextID atomic.Uint64
}

// counters are one session's commit counters: only its own commits
// write them, so committers on different sessions share no counter line.
type counters struct {
	commits   atomic.Uint64
	conflicts atomic.Uint64
	readOnly  atomic.Uint64
	validate  obs.Histogram
}

// addTo accumulates c into s.
func (c *counters) addTo(s *Stats) {
	s.Commits += c.commits.Load()
	s.Conflicts += c.conflicts.Load()
	s.ReadOnly += c.readOnly.Load()
	c.validate.AddTo(&s.Validate)
}

// New builds the engine over st, seeding the transaction-ID counter
// above every ID the store's recovery saw, so IDs stay unique across
// incarnations. Every shard's stripes are the store's own, so plain and
// transactional writers mix freely, in memory as on disk.
func New(st *shard.Store) *Store {
	s := &Store{router: st.Router(), log: st.Durable(), sessions: make(map[*Session]struct{})}
	for i := range st.NumShards() {
		s.stripes = append(s.stripes, s.log.Stripes(i))
	}
	s.nextID.Store(st.RecoveryStats().MaxTxnID)
	return s
}

// stripeOf maps key to its global stripe.
func (st *Store) stripeOf(key []byte) int {
	sh := st.router.Shard(key)
	return sh*bwtree.NStripes + st.stripes[sh].Of(key)
}

func (st *Store) lock(i int)   { st.stripes[i/bwtree.NStripes].Lock(i % bwtree.NStripes) }
func (st *Store) unlock(i int) { st.stripes[i/bwtree.NStripes].Unlock(i % bwtree.NStripes) }
func (st *Store) tryLock(i int) bool {
	return st.stripes[i/bwtree.NStripes].TryLock(i % bwtree.NStripes)
}

// Stats is a point-in-time aggregate of the engine's counters.
type Stats struct {
	// Commits counts committed transactions (including read-only).
	Commits uint64
	// Conflicts counts commits rejected by validation.
	Conflicts uint64
	// ReadOnly counts commits whose resolved write set was empty.
	ReadOnly uint64
	// Validate is the commit-path latency up to the log append: stripe
	// acquisition, read validation, and write resolution.
	Validate obs.HistSnapshot
}

// Stats snapshots the engine's counters: the live sessions' counters
// plus what released sessions folded in.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.closed
	for sess := range st.sessions {
		sess.c.addTo(&s)
	}
	return s
}

// NewTxnSession returns NewSession as an index.TxnSession.
func (st *Store) NewTxnSession() index.TxnSession { return st.NewSession() }

// NewSession returns a per-worker transactional handle.
func (st *Store) NewSession() *Session {
	s := &Session{st: st, sess: make([]*bwtree.Session, len(st.stripes))}
	for i, t := range st.log.Trees() {
		s.sess[i] = t.NewSession()
	}
	st.mu.Lock()
	st.sessions[s] = struct{}{}
	st.mu.Unlock()
	return s
}

// Session is one worker's handle to a Store. It implements
// index.TxnSession; use Begin/RunTxn for the buffered-transaction
// surface on top of it.
type Session struct {
	st   *Store
	sess []*bwtree.Session // one tree session per shard
	c    counters

	// commit scratch, reused across transactions
	wOrder   []int32    // write indices sorted by key
	rOrder   []int32    // read indices sorted by key
	rObs     []observed // per read: what validation read
	wStripes []int
	rStripes []int
	ops      []wal.TxnOp
	opWrite  []int32 // ops[j] resolves writes[opWrite[j]]
}

// observed is one key's (value, presence) as a read of it returned.
type observed struct {
	value uint64
	found bool
}

// Release returns the session's resources and folds its counters into
// the store's total.
func (s *Session) Release() {
	st := s.st
	st.mu.Lock()
	if _, live := st.sessions[s]; live {
		delete(st.sessions, s)
		s.c.addTo(&st.closed)
	}
	st.mu.Unlock()
	for _, ts := range s.sess {
		ts.Release()
	}
}

// readVersion reads key's value and version stamp (ver 0, found false
// for absent keys).
func (s *Session) readVersion(key []byte) (value uint64, ver uint64, found bool) {
	return s.sess[s.st.router.Shard(key)].LookupVersion(key)
}

// GetVersion reads key and its version stamp — the observation to
// record in a read set. Implements index.TxnSession.
func (s *Session) GetVersion(key []byte) (value uint64, ver uint64, found bool, err error) {
	value, ver, found = s.readVersion(key)
	return value, ver, found, nil
}

// sortByKey fills order with 0..n-1 sorted by key(i), reusing its
// storage.
func sortByKey(order []int32, n int, key func(i int32) []byte) []int32 {
	order = order[:0]
	for i := range n {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	return order
}

// CommitTxn validates reads and, if they hold, atomically applies
// writes. See index.TxnSession for the contract. Conflicts return
// Status == index.TxnConflict with a nil error; a non-nil error means
// infrastructure failure (closed store, crashed log) and the outcome of
// an already-logged commit is unresolved.
func (s *Session) CommitTxn(reads []index.TxnRead, writes []index.TxnWrite) (index.TxnResult, error) {
	st := s.st
	if len(writes) > 1 {
		s.wOrder = sortByKey(s.wOrder, len(writes), func(i int32) []byte { return writes[i].Key })
		for n := 1; n < len(s.wOrder); n++ {
			if bytes.Equal(writes[s.wOrder[n-1]].Key, writes[s.wOrder[n]].Key) {
				return index.TxnResult{}, ErrDuplicateWriteKey
			}
		}
	}
	for i := range writes {
		if writes[i].Op != index.TxnPut && writes[i].Op != index.TxnDel {
			return index.TxnResult{}, fmt.Errorf("txn: unknown write op %q", writes[i].Op)
		}
	}

	t0 := obs.Now()

	// Phase 1: write stripes, sorted unique, acquired blocking. Sorted
	// order is the global lock order — the deadlock-freedom invariant.
	s.wStripes = s.wStripes[:0]
	for i := range writes {
		s.wStripes = append(s.wStripes, st.stripeOf(writes[i].Key))
	}
	slices.Sort(s.wStripes)
	s.wStripes = slices.Compact(s.wStripes)
	for _, i := range s.wStripes {
		st.lock(i)
	}
	unlockWrites := func() {
		for _, i := range s.wStripes {
			st.unlock(i)
		}
	}

	// Phase 2: read validation at the commit point.
	if !s.validateReads(reads) {
		unlockWrites()
		s.c.conflicts.Add(1)
		return index.TxnResult{Status: index.TxnConflict}, nil
	}
	if h := validateBarrier; h != nil {
		h()
	}

	// Phase 3: resolve writes into guarded sub-operations under the held
	// stripes — the presence check is stable until we unlock, so the
	// resolved ops replay deterministically during recovery. A key that
	// was also read resolves against what validation read: its write
	// stripe has been held since phase 1, and every writer of the key
	// takes that stripe, so the observation is still current.
	if len(reads) > 0 && len(writes) > 0 {
		s.rOrder = sortByKey(s.rOrder, len(reads), func(i int32) []byte { return reads[i].Key })
	}
	s.ops = s.ops[:0]
	s.opWrite = s.opWrite[:0]
	for i := range writes {
		w := &writes[i]
		var cur observed
		if j, ok := s.readOf(reads, w.Key); ok {
			cur = s.rObs[j]
		} else {
			cur.value, _, cur.found = s.readVersion(w.Key)
		}
		var op byte
		switch {
		case w.Op == index.TxnDel && cur.found:
			op = wal.OpDelete
		case w.Op == index.TxnDel:
			continue // the key is already absent
		case cur.found && cur.value == w.Value:
			// Value unchanged: the tree would install no new record
			// (and therefore no new stamp), so the write is logically a
			// no-op. Dropping it here keeps the invariant that every
			// entry in the logged write set advanced its key's version —
			// the serializability checker depends on it.
			continue
		case cur.found:
			op = wal.OpUpdate
		default:
			op = wal.OpInsert
		}
		s.ops = append(s.ops, wal.TxnOp{Op: op, Key: w.Key, Value: w.Value})
		s.opWrite = append(s.opWrite, int32(i))
	}
	id := st.nextID.Add(1)
	s.c.validate.RecordNS(obs.Now() - t0)

	vers := make([]uint64, len(writes))
	if len(s.ops) == 0 {
		// Read-only (or every write was a no-op): validation alone is
		// the commit; nothing to log or apply.
		unlockWrites()
		s.c.commits.Add(1)
		s.c.readOnly.Add(1)
		return index.TxnResult{Status: index.TxnCommitted, TxnID: id, WriteVers: vers}, nil
	}

	lsn, err := s.logApply(id, vers)
	unlockWrites()
	if err != nil {
		return index.TxnResult{}, err
	}
	s.c.commits.Add(1)
	return index.TxnResult{Status: index.TxnCommitted, TxnID: id, WriteVers: vers}, st.waitDurable(lsn)
}

// readOf finds key in the read set through s.rOrder, returning the
// index of a read of key.
func (s *Session) readOf(reads []index.TxnRead, key []byte) (int32, bool) {
	if len(reads) == 0 {
		return 0, false
	}
	p, ok := slices.BinarySearchFunc(s.rOrder, key, func(i int32, k []byte) int { return bytes.Compare(reads[i].Key, k) })
	if !ok {
		return 0, false
	}
	return s.rOrder[p], true
}

// validateReads rechecks every read-set observation under try-locked
// stripes and keeps what each recheck read in s.rObs. Returns false on
// any mismatch or failed try-lock (both are conservative aborts). The
// caller holds s.wStripes throughout.
func (s *Session) validateReads(reads []index.TxnRead) bool {
	st := s.st
	s.rStripes = s.rStripes[:0]
	if !bugSkipReadLocks {
		for i := range reads {
			si := st.stripeOf(reads[i].Key)
			if _, held := slices.BinarySearch(s.wStripes, si); held {
				continue // already ours, exclusively
			}
			s.rStripes = append(s.rStripes, si)
		}
		slices.Sort(s.rStripes)
		s.rStripes = slices.Compact(s.rStripes)
		for n, si := range s.rStripes {
			if !st.tryLock(si) {
				// A concurrent commit owns a stripe we read under — its
				// writes may invalidate ours mid-validation. Abort rather
				// than wait: waiting could deadlock (it may want our write
				// stripes), and a retry re-reads fresh state anyway. This
				// try-lock is also what closes the write-skew window: two
				// transactions that each read what the other writes cannot
				// both pass validation, because each one's read stripe is
				// the other's held write stripe.
				for _, u := range s.rStripes[:n] {
					st.unlock(u)
				}
				s.rStripes = s.rStripes[:0]
				return false
			}
		}
	}
	ok := true
	s.rObs = slices.Grow(s.rObs[:0], len(reads))[:len(reads)]
	for i := range reads {
		v, ver, found := s.readVersion(reads[i].Key)
		if ver != reads[i].Ver {
			ok = false
			break
		}
		s.rObs[i] = observed{value: v, found: found}
	}
	for _, u := range s.rStripes {
		st.unlock(u)
	}
	return ok
}
