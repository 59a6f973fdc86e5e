package bwtree

import (
	"errors"
	"fmt"
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

// Router partitions a store's key space over several trees. An
// implementation must be a pure function of the key (stateless and safe
// for unlimited concurrency): the same key routes to the same partition
// for the lifetime of a store, and across reopens of a durable one.
type Router interface {
	// Shard returns the partition owning key, in [0, NumShards).
	Shard(key []byte) int
	// NumShards is the partition count.
	NumShards() int
	// Name identifies the routing scheme ("hash", "range") in reports.
	Name() string
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Tree configures the in-memory index. Zero-value fields are filled
	// with defaults as in New.
	Tree Options
	// WAL configures the log writer (segment size, NoSync).
	WAL wal.Options
	// SyncOnCommit makes every mutating operation wait until its log
	// record is fsynced before returning — the acknowledged-write
	// guarantee. When false, mutations return after the record is
	// buffered; durability lags by one group-commit flush and a crash may
	// lose the most recent acknowledgements (bounded by Sync/Checkpoint
	// calls). The in-memory result is identical either way.
	SyncOnCommit bool
	// Router, when non-nil, splits the store into Router.NumShards()
	// partitions, each with its own tree and stripe table, all logging to
	// the one log in dir: a write set spanning partitions is still one
	// record. Reopen a directory with a Router that routes as the last
	// one did. Nil means one tree.
	Router Router
}

// Durable is a store of one or, with a Router, several trees over one
// log, with logging of effects, epoch-consistent checkpoints, and crash
// recovery (see internal/wal for the on-disk format); opened with no
// directory it is the same store without the log. A single-key
// mutation is applied first and logged only if it took effect, so a
// failed insert, update or delete writes nothing; a transaction's
// resolved write set is logged, then applied. Recovery merges the newest
// checkpoint snapshot with the log tail, folded last-writer-wins per key,
// into one BulkLoad per tree.
//
// Durable is the store's one owner, logged or not: every method acts on
// the whole store. Sessions route each key to the partition its Router
// names; Trees and Stripes expose the partitions' trees and lock tables
// by partition number.
//
// Concurrency: obtain one DurableSession per goroutine, exactly as with
// Tree. Commit ordering between conflicting operations is established by
// a striped lock held across the tree-apply + log-append pair, so the
// log's LSN order agrees with the tree's apply order for any single key —
// the property replay depends on. Without a log the stripe is still
// held across the apply, so plain and transactional writers exclude each
// other in memory exactly as on disk. Checkpoint runs concurrently with
// writers.
type Durable struct {
	w   *wal.Writer // nil without a log
	dir string
	o   DurableOptions
	rec RecoveryStats

	// trees and stripes are indexed by partition. A partition's stripes
	// serialize apply+log-append for conflicting keys: 256 ways keeps
	// disjoint-key concurrency while making same-key commit order
	// deterministic.
	trees   []*Tree
	stripes []*Stripes

	closed atomic.Bool // set once, by Close

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
	// write side before releasing the writer and the trees.
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
	// MaxTxnID is the highest transaction ID on an OpTxn record in the
	// replayed log suffix (0 when none). The transaction layer seeds its
	// ID counter above it, so IDs stay unique across incarnations.
	MaxTxnID uint64
	// Replay and SnapshotLoad partition the rebuild's wall clock, whatever
	// the directory holds. Replay is the work proportional to the log
	// tail: tail decode, per-key fold, sort. SnapshotLoad is the work
	// proportional to the live data: snapshot verification, the merge and
	// the BulkLoad of every partition — so it is non-zero for a log-only
	// directory too, and a whole-rebuild rate divides by the sum.
	SnapshotLoad time.Duration
	Replay       time.Duration
}

// ErrDurableClosed is returned by operations on a closed Durable.
var ErrDurableClosed = errors.New("bwtree: durable tree closed")

// OpenDurable opens (creating or recovering) a durable store rooted at
// dir. If dir holds a previous incarnation's state, every partition is
// rebuilt from the newest checkpoint snapshot and the log tail
// (truncating a torn final record), and logging resumes at the next LSN.
// An empty dir opens a volatile store: empty trees, no log, nothing to
// recover.
func OpenDurable(dir string, o DurableOptions) (*Durable, error) {
	if o.Tree.NonUnique {
		// The log records the one value a key holds; last-writer-wins
		// replay is only meaningful for unique keys.
		return nil, errors.New("bwtree: durable trees require unique-key mode")
	}
	n := 1
	if o.Router != nil {
		if n = o.Router.NumShards(); n < 1 {
			return nil, fmt.Errorf("bwtree: router covers %d partitions", n)
		}
	}
	d := &Durable{dir: dir, o: o, trees: make([]*Tree, n), stripes: make([]*Stripes, n)}
	for i := range d.trees {
		d.trees[i], d.stripes[i] = core.New(o.Tree), NewStripes()
	}
	var err error
	if dir != "" {
		var next uint64
		if next, err = d.rebuild(); err == nil {
			d.w, err = wal.NewWriter(dir, o.WAL, next)
		}
	}
	if err != nil {
		for _, t := range d.trees {
			t.Close() // never hand back, or leak, a half-built tree
		}
		return nil, err
	}
	d.lastCP.Store(time.Now().UnixNano())
	if d.rec.Replayed > 0 || d.rec.TornTail {
		// Surface the recovery in the flight recorder (no-op unless the
		// trees were opened with Trace set).
		note := fmt.Sprintf("recovery: replayed %d records after LSN %d (torn tail: %v)",
			d.rec.Replayed, d.rec.SnapshotLSN, d.rec.TornTail)
		for _, t := range d.trees {
			t.AnomalyNote(note)
		}
	}
	return d, nil
}

// owner returns the partition key belongs to.
func (d *Durable) owner(key []byte) int {
	if d.o.Router == nil {
		return 0
	}
	return d.o.Router.Shard(key)
}

// rebuild is the recovery engine, the same code for every directory
// shape: fold the log tail after the manifest LSN into the state each
// touched key's last record leaves it in, merge each partition's sorted
// share of those keys with the snapshot pairs it owns (a tail key
// overrides its snapshot entry), and bulk-load the result into the
// partition's (empty) tree. A log-only directory is the empty-snapshot
// case, a clean checkpoint the empty-tail case. It returns the LSN
// logging resumes at.
func (d *Durable) rebuild() (nextLSN uint64, err error) {
	m, haveCP, err := wal.LoadManifest(d.dir)
	if err != nil {
		return 0, err
	}
	d.rec.SnapshotLSN = m.LSN

	t0 := time.Now()
	tail, st, err := d.foldTail(m.LSN)
	if err != nil {
		return 0, err
	}
	d.rec.Replayed = st.Records
	d.rec.LastLSN = st.MaxLSN
	d.rec.TornTail = st.Torn
	d.rec.Replay = time.Since(t0)

	t0 = time.Now()
	var snap *wal.Snapshot
	if haveCP {
		if snap, err = wal.ReadSnapshot(d.dir, m); err != nil {
			return 0, err
		}
		d.rec.SnapshotKeys = m.Count
	}
	if err := d.load(snap, tail); err != nil {
		return 0, err
	}
	d.rec.SnapshotLoad = time.Since(t0)
	return max(st.MaxLSN, m.LSN) + 1, nil
}

// load merge-loads every partition from the snapshot and its run of the
// tail (foldTail sorts by partition first). One tree loads on the
// caller's goroutine; several load in parallel.
func (d *Durable) load(snap *wal.Snapshot, tail []tailKey) error {
	errs := make([]error, len(d.trees))
	var wg sync.WaitGroup
	for p, t := range d.trees {
		n := 0
		for n < len(tail) && int(tail[n].part) == p {
			n++
		}
		mine := tail[:n]
		tail = tail[n:]
		run := func() { errs[p] = mergeLoad(t, d.cursor(snap, p), mine) }
		if len(d.trees) == 1 {
			run()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cursor streams the snapshot pairs partition p owns. A checkpoint writes
// the partitions one after another, each in key order, so they arrive
// ascending. No snapshot is an empty stream.
func (d *Durable) cursor(snap *wal.Snapshot, p int) func() ([]byte, uint64, error) {
	if snap == nil {
		return func() ([]byte, uint64, error) { return nil, 0, io.EOF }
	}
	next := snap.Cursor()
	if len(d.trees) == 1 {
		return next
	}
	return func() ([]byte, uint64, error) {
		for {
			k, v, err := next()
			if err != nil || d.owner(k) == p {
				return k, v, err
			}
		}
	}
}

// CheckpointAge returns the time since the last durability baseline (the
// last successful Checkpoint, or recovery at open).
func (d *Durable) CheckpointAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - d.lastCP.Load())
}

// tailKey is one key the log tail touches, in the state its last record
// leaves it: every record is an effect (insert and update mean "the key
// now holds value", delete "the key is now absent"), so the last one
// wins, whatever the snapshot holds. A key's state depends only on its
// own records, so the fold needs no cross-key order.
type tailKey struct {
	key     string
	part    int32 // the owning partition
	present bool
	value   uint64
}

// foldTail decodes the log after afterLSN once and returns the touched
// keys in ascending (partition, key) order, each in its final state. It
// records the highest transaction ID it meets in d.rec.MaxTxnID. A record
// kind it does not know — the 'P' and 'C' of a retired two-phase commit
// among them — fails the open rather than being skipped.
func (d *Durable) foldTail(afterLSN uint64) ([]tailKey, wal.ReplayStats, error) {
	// A log-only directory replays every segment, so presize from the log's
	// on-disk footprint (records are at least ~20 bytes framed) —
	// incremental growth to hundreds of thousands of entries otherwise
	// dominates recovery. After a checkpoint DirSize counts segments the
	// snapshot already covers, not the tail, so no hint applies.
	var hint int64
	if afterLSN == 0 {
		hint = min(wal.DirSize(d.dir)/20, 1<<26)
	}
	idx := make(map[string]int32, hint)
	tail := make([]tailKey, 0, hint)
	fold := func(op byte, key []byte, value uint64) error {
		if op != wal.OpInsert && op != wal.OpUpdate && op != wal.OpDelete {
			return fmt.Errorf("bwtree: unknown op %q in log record", op)
		}
		i, ok := idx[string(key)]
		if !ok {
			i = int32(len(tail))
			tail = append(tail, tailKey{key: string(key), part: int32(d.owner(key))})
			idx[tail[i].key] = i
		}
		tail[i].present, tail[i].value = op != wal.OpDelete, value
		return nil
	}
	st, err := wal.Replay(d.dir, afterLSN, func(r wal.Record) error {
		if r.Op != wal.OpTxn {
			return fold(r.Op, r.Key, r.Value)
		}
		// A commit is one frame, so its write set folds all-or-none.
		d.rec.MaxTxnID = max(d.rec.MaxTxnID, r.Value)
		ops, err := wal.DecodeTxnOps(r.Key)
		if err != nil {
			return err
		}
		for i := range ops {
			if err := fold(ops[i].Op, ops[i].Key, ops[i].Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	slices.SortFunc(tail, func(a, b tailKey) int {
		if a.part != b.part {
			return int(a.part - b.part)
		}
		return strings.Compare(a.key, b.key)
	})
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

// Tree returns the in-memory tree of a store opened without a Router, for
// reads, stats, and validation. Mutating it directly bypasses the log;
// use sessions from NewSession for writes. A partitioned store has no one
// tree, so Tree panics there: use Trees.
func (d *Durable) Tree() *Tree {
	if len(d.trees) > 1 {
		panic("bwtree: Tree on a partitioned durable store; use Trees")
	}
	return d.trees[0]
}

// Trees returns every partition's tree, indexed by the Router's shard
// number; a store opened without a Router has one.
func (d *Durable) Trees() []*Tree { return d.trees }

// Stripes returns partition p's commit-ordering lock table. The
// transaction layer holds every write stripe of a commit, in every
// partition it writes, from log append through tree apply (single-key
// commits hold theirs from apply through append); Checkpoint's
// stripe-sweep barrier relies on that for multi-key commits.
func (d *Durable) Stripes(p int) *Stripes { return d.stripes[p] }

// RecoveryStats reports what OpenDurable did.
func (d *Durable) RecoveryStats() RecoveryStats { return d.rec }

// WALStats returns the log writer's counters and histograms (fsync
// latency, group-commit batch sizes); zero without a log.
func (d *Durable) WALStats() wal.Stats {
	if d.w == nil {
		return wal.Stats{}
	}
	return d.w.Stats()
}

// Sync blocks until every operation logged so far is fsynced; at once
// without a log.
func (d *Durable) Sync() error {
	if d.w == nil {
		return nil
	}
	return d.w.Sync()
}

// AppendTxn logs a whole write set, whichever partitions it spans, as one
// wal.OpTxn record and returns its LSN. The caller must hold every write
// stripe of the transaction across this call and the in-memory apply.
// Without a log it appends nothing and returns LSN 0.
func (d *Durable) AppendTxn(txnID uint64, ops []wal.TxnOp) (uint64, error) {
	if d.w == nil {
		return 0, nil
	}
	return d.w.AppendTxn(txnID, ops)
}

// WaitLSN blocks until lsn is fsynced; at once without a log.
func (d *Durable) WaitLSN(lsn uint64) error {
	if d.w == nil {
		return nil
	}
	return d.w.WaitDurable(lsn)
}

// SyncOnCommit reports whether commits wait for their record to be
// fsynced: the store has a log and was opened with the acknowledged-write
// guarantee.
func (d *Durable) SyncOnCommit() bool { return d.o.SyncOnCommit && d.w != nil }

// DurableSession is a single goroutine's handle to a Durable store: one
// tree Session per partition plus the logging protocol. Mutations return
// an error only for durability failures (closed writer, simulated crash,
// disk error); the bool carries the same semantics as the Tree operation.
// When a mutation returns an error, its effect may or may not have been
// applied in memory and may or may not be durable — the caller must treat
// it as unresolved. As with Tree sessions, release every session before
// Close.
type DurableSession struct {
	d  *Durable
	ss []*Session // indexed by partition
}

// NewSession registers a worker goroutine on every partition.
func (d *Durable) NewSession() *DurableSession {
	ds := &DurableSession{d: d, ss: make([]*Session, len(d.trees))}
	for i, t := range d.trees {
		ds.ss[i] = t.NewSession()
	}
	return ds
}

// Release returns the session's resources.
func (ds *DurableSession) Release() {
	for _, s := range ds.ss {
		s.Release()
	}
}

// Partition returns the tree session the durable session holds on
// partition p, for reads and scans on the same goroutine; writing through
// it bypasses the log.
func (ds *DurableSession) Partition(p int) *Session { return ds.ss[p] }

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

// applyOp runs one single-key mutation on a tree session.
func applyOp(s *Session, op byte, key []byte, value uint64) bool {
	switch op {
	case wal.OpUpdate:
		return s.Update(key, value)
	case wal.OpDelete:
		return s.Delete(key, value)
	default:
		return s.Insert(key, value)
	}
}

// commit is the one single-key commit protocol: under the key's stripe
// lock in its partition, apply the mutation to the partition's tree and,
// only if it took effect and the store has a log, append its record
// (assigning its LSN); then, outside the lock, wait for group commit if
// configured. A failed operation writes nothing and waits for nothing.
// Holding the stripe across apply and append keeps each key's LSN order
// equal to its apply order.
//
// Deep-path tracing (a non-nil probe) wraps the whole protocol in one
// probe operation: the inner tree apply nests inside it (see
// obs.Probe.OpBegin), so a sampled commit's trace carries the WAL-append
// and fsync-wait spans next to the in-memory phases, and its
// flight-recorder latency is the full acknowledged-commit latency, not
// just the tree apply.
func (ds *DurableSession) commit(op byte, key []byte, value uint64) (ok bool, err error) {
	d, p := ds.d, ds.d.owner(key)
	s := ds.ss[p]
	pr := s.Probe()
	var opT0 int64
	if pr != nil {
		pr.OpBegin()
		opT0 = obs.Now()
		defer func() { pr.OpEnd(walOpClass(op), opT0, obs.Now()-opT0) }()
	}
	stripes := d.stripes[p]
	si := stripes.Of(key)
	stripes.Lock(si)
	if ok = applyOp(s, op, key, value); !ok || d.w == nil {
		stripes.Unlock(si)
		return ok, nil
	}
	var t0 int64
	if pr.Active() {
		t0 = obs.Now()
	}
	lsn, err := d.w.Append(op, key, value)
	if t0 != 0 {
		pr.Span(obs.PhaseWALAppend, t0, lsn)
	}
	stripes.Unlock(si)
	if err != nil {
		return ok, err
	}
	if d.o.SyncOnCommit {
		if t0 = 0; pr.Active() {
			t0 = obs.Now()
		}
		err = d.w.WaitDurable(lsn)
		if t0 != 0 {
			pr.Span(obs.PhaseFsyncWait, t0, lsn)
		}
		if err != nil {
			return ok, err
		}
	}
	return ok, nil
}

// Insert adds (key, value); see Session.Insert for the bool semantics.
func (ds *DurableSession) Insert(key []byte, value uint64) (bool, error) {
	return ds.commit(wal.OpInsert, key, value)
}

// Update replaces key's value; see Session.Update.
func (ds *DurableSession) Update(key []byte, value uint64) (bool, error) {
	return ds.commit(wal.OpUpdate, key, value)
}

// Delete removes (key, value); see Session.Delete.
func (ds *DurableSession) Delete(key []byte, value uint64) (bool, error) {
	return ds.commit(wal.OpDelete, key, value)
}

// Lookup reads through to the owning partition's tree (reads are never
// logged).
func (ds *DurableSession) Lookup(key []byte, out []uint64) []uint64 {
	return ds.ss[ds.d.owner(key)].Lookup(key, out)
}

// Scan reads through to the tree. On a store of several partitions the
// keys from start onward are spread over every partition, and merging
// them in key order is the sharded store's job (shard.Session.Scan);
// answering from one partition would silently drop the rest, so Scan
// panics there instead.
func (ds *DurableSession) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	if len(ds.ss) > 1 {
		panic("bwtree: DurableSession.Scan on a partitioned store; scan through shard.Session")
	}
	return ds.ss[0].Scan(start, n, visit)
}

// Checkpoint writes an epoch-consistent snapshot of every partition's
// tree, one after another into one snapshot file, plus a manifest, and
// prunes log segments the snapshot covers. It runs concurrently with
// writers: the snapshot is fuzzy (each leaf is a consistent cut, the
// whole file is not), which is safe because every effect the walk raced
// with is logged after the returned LSN, and replay from there sets each
// such key to the value its last record names (last-writer-wins),
// whatever the walk saw. The log is forced durable through the walk's end
// before the manifest is published.
//
// Returns the manifest LSN (the new replay start). Concurrent
// Checkpoint calls serialize, and Close waits for an in-flight
// checkpoint before tearing the writer and trees down. A store without a
// log has nothing to checkpoint into and returns 0.
func (d *Durable) Checkpoint() (uint64, error) {
	if d.w == nil {
		return 0, nil
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.life.RLock()
	defer d.life.RUnlock()
	if d.closed.Load() {
		return 0, ErrDurableClosed
	}

	cpLSN := d.w.AppendedLSN()
	// A single-key commit applies before it appends, so its effect is in
	// the tree before it has an LSN. A transaction appends first and holds
	// its write stripes, in every partition it writes, through the tree
	// apply, so a transaction with LSN <= cpLSN that is not yet visible in
	// the trees still owns its stripes. Sweeping every stripe of every
	// partition is therefore a barrier: once each lock has been taken and
	// released, the trees reflect every record at or below cpLSN. Without
	// it the walk could miss an acknowledged transaction whose LSN the
	// manifest claims to cover — and replay starts strictly after the
	// manifest LSN, so it would be lost.
	for _, st := range d.stripes {
		st.Barrier()
	}
	next, done := walk(d.trees)
	defer done()
	m, err := wal.WriteCheckpoint(d.dir, cpLSN, next, func() error {
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

// walk streams every pair of trees, tree by tree, each in ascending key
// order — the order a snapshot stores them in. done releases the session
// of the tree the walk stopped in.
func walk(trees []*Tree) (next func() ([]byte, uint64, bool), done func()) {
	var s *Session
	var it *Iterator
	done = func() {
		if s != nil {
			s.Release()
			s = nil
		}
	}
	next = func() ([]byte, uint64, bool) {
		for it == nil || !it.Valid() {
			done()
			if len(trees) == 0 {
				return nil, 0, false
			}
			s = trees[0].NewSession()
			trees = trees[1:]
			it = s.NewIterator()
			it.SeekFirst()
		}
		k, v := it.Key(), it.Value()
		it.Next()
		return k, v, true
	}
	return next, done
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
	next, done := walk([]*Tree{t})
	defer done()
	m, err := wal.WriteCheckpoint(dir, 0, next, nil)
	if err != nil {
		return 0, err
	}
	return m.Count, nil
}

// Close flushes and fsyncs the log, then shuts every partition's tree
// down. It does not checkpoint; call Checkpoint first to make the next
// open fast.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	// Wait for any in-flight Checkpoint (it holds the lifecycle
	// read-lock across its walk) before releasing the writer and trees;
	// checkpoints arriving after this see closed and return early.
	d.life.Lock()
	defer d.life.Unlock()
	var err error
	if d.w != nil {
		err = d.w.Close()
	}
	for _, t := range d.trees {
		t.Close()
	}
	return err
}

// Crash simulates a power failure of the whole store for durability
// testing: all buffered, un-fsynced log data is discarded (the active
// segment is truncated to its last fsync) and every mutation from then on
// fails with wal.ErrCrashed. The in-memory trees stay alive — concurrent
// sessions may be mid-operation — but are no longer authoritative; call
// Close to release them, then reopen the directory with OpenDurable to
// get the surviving state. Without a log there is nothing to lose, and
// Crash does nothing.
func (d *Durable) Crash() error {
	if d.w == nil {
		return nil
	}
	d.life.RLock()
	defer d.life.RUnlock()
	if d.closed.Load() {
		return nil
	}
	return d.w.Crash()
}
