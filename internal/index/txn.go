package index

// Transactional capability interfaces. A store that can participate in
// optimistic multi-key transactions (internal/txn) exposes two
// primitives beyond the plain Session surface: a versioned read, and an
// atomic validate-log-apply commit of a whole read/write set. The txn
// package's Store/Tx machinery drives any implementation of these — a
// single durable tree, a sharded store, or a remote server over the
// wire protocol.

// TxnPut and TxnDel are the operation kinds of a transactional write.
// The engine resolves a TxnPut into insert-or-update (and drops a
// TxnDel of an absent key) at commit time, under the write locks.
const (
	TxnPut byte = 'p'
	TxnDel byte = 'd'
)

// TxnRead is one read-set entry: the caller observed key at version Ver
// (0 = observed absent) and the commit is valid only if that is still
// the key's state at commit time.
type TxnRead struct {
	Key []byte
	Ver uint64
}

// TxnWrite is one write-set entry. Op is TxnPut or TxnDel; Value is
// ignored for TxnDel.
type TxnWrite struct {
	Op    byte
	Key   []byte
	Value uint64
}

// TxnStatus is the outcome of a CommitTxn.
type TxnStatus uint8

const (
	// TxnCommitted: the write set is applied (and durable, under
	// sync-on-commit stores) and the read set validated.
	TxnCommitted TxnStatus = iota
	// TxnConflict: validation failed — some read-set key changed since it
	// was observed, or its stripe was write-locked by a concurrent
	// commit. Nothing was applied; the caller may retry from scratch.
	TxnConflict
)

// TxnResult reports a commit's outcome. TxnID and WriteVers are only
// meaningful when Status == TxnCommitted: TxnID is the engine-assigned
// transaction ID (unique per store incarnation, monotone in commit
// order per stripe set), and WriteVers[i] is the version stamp the i-th
// write-set entry's key carries after the commit — the hooks the
// serializability checker builds its history from. A zero entry marks a
// write that installed no new version: a TxnDel, a TxnDel of an absent
// key, or a TxnPut whose value matched what the key already held (the
// engine elides such writes entirely — they cannot invalidate any
// concurrent read).
type TxnResult struct {
	Status    TxnStatus
	TxnID     uint64
	WriteVers []uint64
}

// TxnSession is a per-worker handle for transactional access. Like
// Session, at most one goroutine may use it at a time.
type TxnSession interface {
	// GetVersion reads key and its version stamp. found=false reports
	// absence, with ver 0 — also a validatable observation.
	GetVersion(key []byte) (value uint64, ver uint64, found bool, err error)
	// CommitTxn atomically validates reads and, if they hold, applies
	// writes. Write keys must be distinct; a key in both sets validates
	// and is overwritten. An empty write set is a read-only validation.
	// The error return is for infrastructure failures (closed store,
	// crashed log, broken connection) — optimistic conflicts come back
	// as TxnConflict with a nil error.
	CommitTxn(reads []TxnRead, writes []TxnWrite) (TxnResult, error)
	// Release returns the session's resources.
	Release()
}
