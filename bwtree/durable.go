package bwtree

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Tree configures the in-memory index. Zero-value fields are filled
	// with defaults as in New.
	Tree Options
	// WAL configures the log writer (segment size, group-commit interval
	// and size, NoSync).
	WAL wal.Options
	// SyncOnCommit makes every mutating operation wait until its log
	// record is fsynced before returning — the acknowledged-write
	// guarantee. When false, mutations return after the record is
	// buffered; durability lags by one group-commit flush and a crash may
	// lose the most recent acknowledgements (bounded by Sync/Checkpoint
	// calls). The in-memory result is identical either way.
	SyncOnCommit bool
	// TxnCommitted resolves two-phase transaction prepares found during
	// recovery: a surviving OpTxnPrep record applies iff this reports its
	// transaction ID committed. Leave nil for standalone stores — they
	// then resolve decisions from their own log (a prep is committed iff
	// an OpTxnCommit for its ID survives here). A sharded store passes a
	// store-level resolver so a decision surviving in any participant's
	// log commits the prepares in all of them.
	TxnCommitted func(txnID uint64) bool
}

// Durable wraps a Tree with logging of effects, epoch-consistent
// checkpoints, and crash recovery (see internal/wal for the on-disk
// format). A single-key mutation is applied first and logged only if it
// took effect, so a failed insert, update or delete writes nothing; a
// transaction's resolved write set is logged, then applied. Recovery
// merges the newest checkpoint snapshot with the log tail, folded
// last-writer-wins per key, into one BulkLoad.
//
// Concurrency: obtain one DurableSession per goroutine, exactly as with
// Tree. Commit ordering between conflicting operations is established by
// a striped lock held across the tree-apply + log-append pair, so the
// log's LSN order agrees with the tree's apply order for any single key —
// the property replay depends on. Checkpoint runs concurrently with
// writers.
type Durable struct {
	t   *Tree
	w   *wal.Writer
	dir string
	o   DurableOptions
	rec RecoveryStats

	// stripes serialize apply+log-append for conflicting keys. 256 ways
	// keeps disjoint-key concurrency while making same-key commit order
	// deterministic.
	stripes [256]sync.Mutex
	seed    maphash.Seed

	mu     sync.Mutex // guards the closed flag and the convenience session
	closed bool
	convs  *Session // lazy session backing the convenience methods

	// lastCP is the wall-clock UnixNano of the last durability baseline:
	// set at open (recovery establishes one) and on every successful
	// Checkpoint. Feeds the checkpoint-age health gauge.
	lastCP atomic.Int64

	// cpMu serializes whole checkpoints: overlapping WriteCheckpoint
	// calls would each publish a manifest and then prune every snapshot
	// but their own, so the one finishing second could delete the file
	// the surviving manifest points at.
	cpMu sync.Mutex
	// life fences Close against in-flight checkpoints: Checkpoint holds
	// the read side across its tree walk and log sync, Close takes the
	// write side before releasing the writer and the tree.
	life sync.RWMutex
}

// RecoveryStats describes what OpenDurable had to do to rebuild state.
type RecoveryStats struct {
	// SnapshotKeys is the number of pairs read from the checkpoint
	// snapshot (0 when none existed).
	SnapshotKeys uint64
	// SnapshotLSN is the manifest's replay-start LSN.
	SnapshotLSN uint64
	// Replayed is the number of log records after SnapshotLSN that the
	// rebuild decoded and folded.
	Replayed int
	// LastLSN is the highest LSN found in the log.
	LastLSN uint64
	// TornTail reports that a torn final record was found and truncated.
	TornTail bool
	// MaxTxnID is the highest transaction ID observed in the replayed log
	// suffix (0 when none). The transaction layer seeds its ID counter
	// above it so a new prepare can never collide with a stale surviving
	// decision record.
	MaxTxnID uint64
	// Replay and SnapshotLoad partition the rebuild's wall clock, whatever
	// the directory holds. Replay is the work proportional to the log
	// tail: decision pre-scan, tail decode, per-key fold, sort.
	// SnapshotLoad is the work proportional to the live data: snapshot
	// verification, the merge and the one BulkLoad — so it is non-zero
	// for a log-only directory too, and a whole-rebuild rate divides by
	// the sum.
	SnapshotLoad time.Duration
	Replay       time.Duration
}

// ErrDurableClosed is returned by operations on a closed Durable.
var ErrDurableClosed = errors.New("bwtree: durable tree closed")

// OpenDurable opens (creating or recovering) a durable tree rooted at
// dir. If dir holds a previous incarnation's state, the tree is rebuilt
// from the newest checkpoint snapshot and the log tail (truncating a torn
// final record), and logging resumes at the next LSN.
func OpenDurable(dir string, o DurableOptions) (*Durable, error) {
	if o.Tree.NonUnique {
		// The log records the one value a key holds; last-writer-wins
		// replay is only meaningful for unique keys.
		return nil, errors.New("bwtree: durable trees require unique-key mode")
	}
	d := &Durable{dir: dir, o: o, seed: maphash.MakeSeed(), t: core.New(o.Tree)}
	next, err := d.rebuild()
	if err == nil {
		d.w, err = wal.NewWriter(dir, o.WAL, next)
	}
	if err != nil {
		d.t.Close() // never hand back, or leak, a half-built tree
		return nil, err
	}
	d.lastCP.Store(time.Now().UnixNano())
	if d.rec.Replayed > 0 || d.rec.TornTail {
		// Surface the recovery in the flight recorder (no-op unless the
		// tree was opened with FlightRecorderSize set).
		d.t.AnomalyNote(fmt.Sprintf(
			"recovery: replayed %d records after LSN %d (torn tail: %v)",
			d.rec.Replayed, d.rec.SnapshotLSN, d.rec.TornTail))
	}
	return d, nil
}

// rebuild is the recovery engine, the same code for every directory
// shape: fold the log tail after the manifest LSN into the state each
// touched key's last record leaves it in, merge those sorted keys with
// the snapshot stream (a tail key overrides its snapshot entry), and
// bulk-load the result into the (empty) tree. A log-only directory is the
// empty-snapshot case, a clean checkpoint the empty-tail case. It runs on
// the caller's goroutine alone and returns the LSN logging resumes at.
func (d *Durable) rebuild() (nextLSN uint64, err error) {
	m, haveCP, err := wal.LoadManifest(d.dir)
	if err != nil {
		return 0, err
	}
	d.rec.SnapshotLSN = m.LSN

	t0 := time.Now()
	committed := d.o.TxnCommitted
	preTorn := false
	if committed == nil {
		// Standalone decision pre-scan: a surviving two-phase prepare
		// applies iff its decision record also survives in this log.
		// Decisions and the ID high-water mark come from the same pass, so
		// a stale decision that could poison a future prepare necessarily
		// pushes the next incarnation's IDs above itself. (The pass also
		// truncates a torn tail; remember it — the fold then finds the log
		// already clean.)
		set, maxID, torn, perr := ScanTxnDecisions(d.dir)
		if perr != nil {
			return 0, perr
		}
		d.rec.MaxTxnID = maxID
		preTorn = torn
		committed = func(id uint64) bool { return set[id] }
	}
	tail, st, err := foldTail(d.dir, m.LSN, committed)
	if err != nil {
		return 0, err
	}
	d.rec.Replayed = st.Records
	d.rec.LastLSN = st.MaxLSN
	d.rec.TornTail = st.Torn || preTorn
	d.rec.Replay = time.Since(t0)

	t0 = time.Now()
	snap := func() ([]byte, uint64, error) { return nil, 0, io.EOF }
	if haveCP {
		if snap, err = wal.ReadSnapshot(d.dir, m); err != nil {
			return 0, err
		}
		d.rec.SnapshotKeys = m.Count
	}
	if err := mergeLoad(d.t, snap, tail); err != nil {
		return 0, err
	}
	d.rec.SnapshotLoad = time.Since(t0)
	return max(st.MaxLSN, m.LSN) + 1, nil
}

// CheckpointAge returns the time since the last durability baseline (the
// last successful Checkpoint, or recovery at open).
func (d *Durable) CheckpointAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - d.lastCP.Load())
}

// ScanTxnDecisions reads dir's log tail (after its manifest LSN, when a
// checkpoint exists) and reports every transaction ID carrying a
// surviving OpTxnCommit decision record, plus the highest transaction ID
// seen on any transaction record. A sharded store runs this over every
// shard directory before opening them, merges the results, and passes
// the union as DurableOptions.TxnCommitted — a decision surviving in any
// participant's log then commits the prepares in all of them.
//
// The scan truncates a torn final record exactly as replay would (the
// two must agree on where the log ends); torn reports whether it did, so
// callers can surface the truncation even though the subsequent open
// finds the log already clean.
//
// Prune safety: a decision is appended to the same log as each prepare
// it commits, after it — so a surviving prepare's decision sits above
// the same manifest LSN, and the per-shard scans collectively see every
// decision that any surviving prepare needs.
func ScanTxnDecisions(dir string) (committed map[uint64]bool, maxTxnID uint64, torn bool, err error) {
	m, _, err := wal.LoadManifest(dir)
	if err != nil {
		return nil, 0, false, err
	}
	set := make(map[uint64]bool)
	st, err := wal.Replay(dir, m.LSN, func(r wal.Record) error {
		if wal.IsTxnOp(r.Op) {
			if r.Value > maxTxnID {
				maxTxnID = r.Value
			}
			if r.Op == wal.OpTxnCommit {
				set[r.Value] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	return set, maxTxnID, st.Torn, nil
}

// tailKey is one key the log tail touches, in the state its last record
// leaves it: every record is an effect (insert and update mean "the key
// now holds value", delete "the key is now absent"), so the last one
// wins, whatever the snapshot holds. A key's state depends only on its
// own records, so the fold needs no cross-key order.
type tailKey struct {
	key     string
	present bool
	value   uint64
}

// foldTail decodes the log after afterLSN once and returns the touched
// keys in ascending order, each in its final state.
func foldTail(dir string, afterLSN uint64, committed func(uint64) bool) ([]tailKey, wal.ReplayStats, error) {
	// A log-only directory replays every segment, so presize from the log's
	// on-disk footprint (records are at least ~20 bytes framed) —
	// incremental growth to hundreds of thousands of entries otherwise
	// dominates recovery. After a checkpoint DirSize counts segments the
	// snapshot already covers, not the tail, so no hint applies.
	var hint int64
	if afterLSN == 0 {
		hint = min(wal.DirSize(dir)/20, 1<<26)
	}
	idx := make(map[string]int32, hint)
	tail := make([]tailKey, 0, hint)
	fold := func(op byte, key []byte, value uint64) error {
		if op != wal.OpInsert && op != wal.OpUpdate && op != wal.OpDelete {
			return errors.New("bwtree: unknown op in log record")
		}
		i, ok := idx[string(key)]
		if !ok {
			i = int32(len(tail))
			tail = append(tail, tailKey{key: string(key)})
			idx[tail[i].key] = i
		}
		tail[i].present, tail[i].value = op != wal.OpDelete, value
		return nil
	}
	st, err := wal.Replay(dir, afterLSN, func(r wal.Record) error {
		switch r.Op {
		case wal.OpTxn, wal.OpTxnPrep:
			// A self-contained commit always applies; a two-phase prepare
			// applies iff its decision survived (presumed abort). Either
			// way the record is one frame, so its sub-ops fold all-or-none.
			if r.Op == wal.OpTxnPrep && !committed(r.Value) {
				return nil
			}
			ops, derr := wal.DecodeTxnOps(r.Key)
			if derr != nil {
				return derr
			}
			for i := range ops {
				if ferr := fold(ops[i].Op, ops[i].Key, ops[i].Value); ferr != nil {
					return ferr
				}
			}
			return nil
		case wal.OpTxnCommit:
			return nil // decision only; carries no writes
		}
		return fold(r.Op, r.Key, r.Value)
	})
	if err != nil {
		return nil, st, err
	}
	slices.SortFunc(tail, func(a, b tailKey) int { return strings.Compare(a.key, b.key) })
	return tail, st, nil
}

// mergeLoad merge-joins the snapshot cursor with the sorted tail and
// feeds the result to the one BulkLoad recovery performs. A snapshot key
// the tail does not touch passes through; a tail key replaces the
// snapshot's entry for it, and is emitted at most once, only if present.
// A cursor error ends the stream early and is returned in preference to
// anything BulkLoad says about the truncated input.
func mergeLoad(t *Tree, snap func() ([]byte, uint64, error), tail []tailKey) error {
	sk, sv, serr := snap()
	var buf []byte // BulkLoad clones keys, so tail keys share one buffer
	err := t.BulkLoad(func() ([]byte, uint64, bool) {
		for {
			switch {
			case serr != nil && serr != io.EOF:
				return nil, 0, false
			case serr == nil && (len(tail) == 0 || string(sk) < tail[0].key):
				k, v := sk, sv
				sk, sv, serr = snap()
				return k, v, true
			case len(tail) == 0:
				return nil, 0, false
			}
			tk := tail[0]
			tail = tail[1:]
			if serr == nil && string(sk) == tk.key {
				sk, sv, serr = snap()
			}
			if tk.present {
				buf = append(buf[:0], tk.key...)
				return buf, tk.value, true
			}
		}
	})
	if serr != nil && serr != io.EOF {
		return serr
	}
	return err
}

// Tree returns the wrapped in-memory tree for reads, stats, and
// validation. Mutating it directly bypasses the log; use sessions from
// NewSession for writes.
func (d *Durable) Tree() *Tree { return d.t }

// RecoveryStats reports what OpenDurable did.
func (d *Durable) RecoveryStats() RecoveryStats { return d.rec }

// WALStats returns the log writer's counters and histograms (fsync
// latency, group-commit batch sizes).
func (d *Durable) WALStats() wal.Stats { return d.w.Stats() }

// DurableLSN returns the highest fsynced LSN.
func (d *Durable) DurableLSN() uint64 { return d.w.DurableLSN() }

// Sync blocks until every operation logged so far is fsynced.
func (d *Durable) Sync() error { return d.w.Sync() }

// stripe returns the commit-ordering lock for key.
func (d *Durable) stripe(key []byte) *sync.Mutex {
	return &d.stripes[maphash.Bytes(d.seed, key)&0xff]
}

// NStripes is the number of commit-ordering stripe locks on a Durable.
// Exported for the transaction layer, which orders multi-key lock
// acquisition by stripe index.
const NStripes = 256

// StripeOf returns key's commit-ordering stripe index in [0, NStripes).
func (d *Durable) StripeOf(key []byte) int {
	return int(maphash.Bytes(d.seed, key) & 0xff)
}

// StripeLock acquires stripe i. The transaction layer holds every write
// stripe of a commit from log append through tree apply (single-key
// commits hold theirs from apply through append); Checkpoint's
// stripe-sweep barrier relies on that for multi-key commits.
func (d *Durable) StripeLock(i int) { d.stripes[i].Lock() }

// StripeUnlock releases stripe i.
func (d *Durable) StripeUnlock(i int) { d.stripes[i].Unlock() }

// StripeTryLock attempts stripe i without blocking. Read validation uses
// it so a reader never waits on a writer (wait-free validation; a failed
// try is a conservative abort).
func (d *Durable) StripeTryLock(i int) bool { return d.stripes[i].TryLock() }

// AppendTxn logs one transaction record (wal.OpTxn / OpTxnPrep /
// OpTxnCommit) and returns its LSN. The caller must hold every write
// stripe of the transaction across this call and the in-memory apply.
func (d *Durable) AppendTxn(op byte, txnID uint64, ops []wal.TxnOp) (uint64, error) {
	return d.w.AppendTxn(op, txnID, ops)
}

// WaitLSN blocks until lsn is fsynced.
func (d *Durable) WaitLSN(lsn uint64) error { return d.w.WaitDurable(lsn) }

// SyncOnCommit reports whether the store was opened with the
// acknowledged-write guarantee.
func (d *Durable) SyncOnCommit() bool { return d.o.SyncOnCommit }

// DurableSession is a single goroutine's handle to a Durable tree: the
// wrapped Session plus the logging protocol. Mutations return an error
// only for durability failures (closed writer, simulated crash, disk
// error); the bool carries the same semantics as the Tree operation. When
// a mutation returns an error, its effect may or may not have been
// applied in memory and may or may not be durable — the caller must treat
// it as unresolved. As with Tree sessions, release every session before
// Close.
type DurableSession struct {
	d *Durable
	s *Session
}

// NewSession registers a worker goroutine.
func (d *Durable) NewSession() *DurableSession {
	return &DurableSession{d: d, s: d.t.NewSession()}
}

// Release returns the session's resources.
func (ds *DurableSession) Release() { ds.s.Release() }

// Session exposes the wrapped tree session for read-only use (iterators).
func (ds *DurableSession) Session() *Session { return ds.s }

// walOpClass maps a log op byte to its latency/trace class.
func walOpClass(op byte) obs.OpClass {
	switch op {
	case wal.OpUpdate:
		return obs.OpUpdate
	case wal.OpDelete:
		return obs.OpDelete
	default:
		return obs.OpInsert
	}
}

// commitProbed is the one single-key commit protocol: under the key's
// stripe lock, apply the mutation to the tree and, only if it took
// effect, append its record (assigning its LSN); then, outside the lock,
// wait for group commit if configured. A failed operation writes nothing
// and waits for nothing. Holding the stripe across apply and append keeps
// each key's LSN order equal to its apply order.
//
// Deep-path tracing (p non-nil) wraps the whole protocol in one probe
// operation: the inner tree apply nests inside it (see obs.Probe.OpBegin),
// so a sampled commit's trace carries the WAL-append and fsync-wait spans
// next to the in-memory phases, and its flight-recorder latency is the
// full acknowledged-commit latency, not just the tree apply.
func commitProbed(d *Durable, p *obs.Probe, op byte, key []byte, value uint64, apply func() bool) (ok bool, err error) {
	var opT0 int64
	if p != nil {
		p.OpBegin()
		opT0 = obs.Now()
		defer func() { p.OpEnd(walOpClass(op), opT0, obs.Now()-opT0) }()
	}
	st := d.stripe(key)
	st.Lock()
	if ok = apply(); !ok {
		st.Unlock()
		return false, nil
	}
	var t0 int64
	if p.Active() {
		t0 = obs.Now()
	}
	lsn, err := d.w.Append(op, key, value)
	if t0 != 0 {
		p.Span(obs.PhaseWALAppend, t0, lsn)
	}
	st.Unlock()
	if err != nil {
		return ok, err
	}
	if d.o.SyncOnCommit {
		if t0 = 0; p.Active() {
			t0 = obs.Now()
		}
		err = d.w.WaitDurable(lsn)
		if t0 != 0 {
			p.Span(obs.PhaseFsyncWait, t0, lsn)
		}
		if err != nil {
			return ok, err
		}
	}
	return ok, nil
}

// Insert adds (key, value); see Session.Insert for the bool semantics.
func (ds *DurableSession) Insert(key []byte, value uint64) (bool, error) {
	return commitProbed(ds.d, ds.s.Probe(), wal.OpInsert, key, value, func() bool { return ds.s.Insert(key, value) })
}

// Update replaces key's value; see Session.Update.
func (ds *DurableSession) Update(key []byte, value uint64) (bool, error) {
	return commitProbed(ds.d, ds.s.Probe(), wal.OpUpdate, key, value, func() bool { return ds.s.Update(key, value) })
}

// Delete removes (key, value); see Session.Delete.
func (ds *DurableSession) Delete(key []byte, value uint64) (bool, error) {
	return commitProbed(ds.d, ds.s.Probe(), wal.OpDelete, key, value, func() bool { return ds.s.Delete(key, value) })
}

// Lookup reads through to the tree (reads are never logged).
func (ds *DurableSession) Lookup(key []byte, out []uint64) []uint64 {
	return ds.s.Lookup(key, out)
}

// Scan reads through to the tree.
func (ds *DurableSession) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	return ds.s.Scan(start, n, visit)
}

// conv returns the mutex-guarded session backing Durable's convenience
// methods; d.mu must be held.
func (d *Durable) conv() (*Session, error) {
	if d.closed {
		return nil, ErrDurableClosed
	}
	if d.convs == nil {
		d.convs = d.t.NewSession()
	}
	return d.convs, nil
}

// Insert is a convenience single-caller form of DurableSession.Insert;
// concurrent workloads should use per-goroutine sessions instead.
func (d *Durable) Insert(key []byte, value uint64) (bool, error) {
	return d.convCommit(wal.OpInsert, key, value, func(s *Session) bool { return s.Insert(key, value) })
}

// Update is the convenience form of DurableSession.Update.
func (d *Durable) Update(key []byte, value uint64) (bool, error) {
	return d.convCommit(wal.OpUpdate, key, value, func(s *Session) bool { return s.Update(key, value) })
}

// Delete is the convenience form of DurableSession.Delete.
func (d *Durable) Delete(key []byte, value uint64) (bool, error) {
	return d.convCommit(wal.OpDelete, key, value, func(s *Session) bool { return s.Delete(key, value) })
}

// Lookup is the convenience read.
func (d *Durable) Lookup(key []byte, out []uint64) ([]uint64, error) {
	d.mu.Lock()
	s, err := d.conv()
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	res := s.Lookup(key, out)
	d.mu.Unlock()
	return res, nil
}

// convCommit runs commitProbed with the shared convenience session, held
// under d.mu for the tree apply only, so convenience callers never
// serialize on the group-commit wait. Probe state (single owner by
// contract) cannot follow a shared session, so this path stays unprobed;
// hot workloads use DurableSession, which is.
func (d *Durable) convCommit(op byte, key []byte, value uint64, apply func(*Session) bool) (bool, error) {
	var closed error
	ok, err := commitProbed(d, nil, op, key, value, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		s, err := d.conv()
		closed = err
		return err == nil && apply(s)
	})
	if closed != nil {
		return false, closed
	}
	return ok, err
}

// Checkpoint writes an epoch-consistent snapshot of the tree plus a
// manifest, and prunes log segments the snapshot covers. It runs
// concurrently with writers: the snapshot is fuzzy (each leaf is a
// consistent cut, the whole file is not), which is safe because every
// effect the walk raced with is logged after the returned LSN, and replay
// from there sets each such key to the value its last record names
// (last-writer-wins), whatever the walk saw. The log is forced durable
// through the walk's end before the manifest is published.
//
// Returns the manifest LSN (the new replay start). Concurrent
// Checkpoint calls serialize, and Close waits for an in-flight
// checkpoint before tearing the writer and tree down.
func (d *Durable) Checkpoint() (uint64, error) {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.life.RLock()
	defer d.life.RUnlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, ErrDurableClosed
	}
	d.mu.Unlock()

	cpLSN := d.w.AppendedLSN()
	// A single-key commit applies before it appends, so its effect is in
	// the tree before it has an LSN. A transaction appends first and holds
	// its write stripes through the tree apply, so a transaction with
	// LSN <= cpLSN that is not yet visible in the tree still owns its
	// stripes. Sweeping every stripe is therefore a barrier: once each
	// lock has been taken and released, the tree reflects every record at
	// or below cpLSN. Without it the walk could miss an acknowledged
	// transaction whose LSN the manifest claims to cover — and replay
	// starts strictly after the manifest LSN, so it would be lost.
	for i := range d.stripes {
		d.stripes[i].Lock()
		d.stripes[i].Unlock() // empty critical section is the barrier
	}
	s := d.t.NewSession()
	defer s.Release()
	it := s.NewIterator()
	it.SeekFirst()
	m, err := wal.WriteCheckpoint(d.dir, cpLSN, func() ([]byte, uint64, bool) {
		if !it.Valid() {
			return nil, 0, false
		}
		k, v := it.Key(), it.Value()
		it.Next()
		return k, v, true
	}, func() error {
		// Force the log durable through the walk's end so every
		// operation possibly reflected in the snapshot is also logged on
		// disk before the manifest points at it.
		return d.w.Sync()
	})
	if err != nil {
		return 0, err
	}
	d.lastCP.Store(time.Now().UnixNano())
	return m.LSN, nil
}

// Snapshot checkpoints a plain in-memory tree into dir so OpenDurable
// can later restore it: a snapshot file plus manifest at LSN 0, with no
// log. The tree must be quiescent for the snapshot to be a faithful
// point-in-time copy (with concurrent writers it is merely
// epoch-consistent, as with Durable.Checkpoint, but here there is no log
// to converge from). Returns the number of pairs written.
//
// dir must not already hold a log or checkpoint: an LSN-0 snapshot next
// to existing segments would make the next open replay old records on
// top of this tree's state.
func Snapshot(t *Tree, dir string) (uint64, error) {
	if _, ok, err := wal.LoadManifest(dir); err != nil {
		return 0, err
	} else if ok || wal.DirSize(dir) > 0 {
		return 0, errors.New("bwtree: Snapshot target directory already holds a durable store")
	}
	s := t.NewSession()
	defer s.Release()
	it := s.NewIterator()
	it.SeekFirst()
	m, err := wal.WriteCheckpoint(dir, 0, func() ([]byte, uint64, bool) {
		if !it.Valid() {
			return nil, 0, false
		}
		k, v := it.Key(), it.Value()
		it.Next()
		return k, v, true
	}, nil)
	if err != nil {
		return 0, err
	}
	return m.Count, nil
}

// Close flushes and fsyncs the log, then shuts the tree down. It does
// not checkpoint; call Checkpoint first to make the next open fast.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	if d.convs != nil {
		d.convs.Release()
		d.convs = nil
	}
	d.mu.Unlock()
	// Wait for any in-flight Checkpoint (it holds the lifecycle
	// read-lock across its walk) before releasing the writer and tree;
	// checkpoints arriving after this see closed and return early.
	d.life.Lock()
	defer d.life.Unlock()
	err := d.w.Close()
	d.t.Close()
	return err
}

// Crash simulates a power failure for durability testing: all buffered,
// un-fsynced log data is discarded (the active segment is truncated to
// its last fsync) and every mutation from then on fails with
// wal.ErrCrashed. The in-memory tree stays alive — concurrent sessions
// may be mid-operation — but is no longer authoritative; call Close to
// release it, then reopen the directory with OpenDurable to get the
// surviving state.
func (d *Durable) Crash() error {
	d.life.RLock()
	defer d.life.RUnlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	return d.w.Crash()
}
