package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("wal: writer closed")

// ErrCrashed is returned once Crash has been called: the log is frozen at
// its last fsync and every in-flight or later commit is lost.
var ErrCrashed = errors.New("wal: simulated crash")

// testFault, when non-nil, intercepts segment writes and fsyncs so tests
// can inject crash points: for op "write" it may shorten the write to n
// bytes and/or fail it; for op "sync" a non-nil error fails the fsync.
// Guarded by the flusher being the only file writer.
var testFault func(op string, size int) (n int, err error)

// SetTestFault installs the write-fault hook and returns a restore
// function. Tests only; production code never sets it.
func SetTestFault(f func(op string, size int) (n int, err error)) (restore func()) {
	prev := testFault
	testFault = f
	return func() { testFault = prev }
}

// Writer is the append side of the log. Any number of goroutines may
// Append concurrently; one internal flusher goroutine writes and fsyncs
// batches (group commit). See the package comment for the durability
// contract.
type Writer struct {
	opts Options
	dir  string

	mu   sync.Mutex
	work sync.Cond // signaled when buf gains data or the writer closes
	done sync.Cond // broadcast when durableLSN advances or the writer dies

	buf      []byte // encoded records not yet handed to the flusher
	bufRecs  int
	nextLSN  uint64 // LSN the next Append will get
	appended uint64 // last assigned LSN (0 = none)
	closed   bool
	crashed  bool
	err      error // sticky flush error; commits fail once set

	durable atomic.Uint64 // last fsynced LSN

	// Active segment state (flusher-owned except under mu at rotation).
	f          *os.File
	fileSize   int64
	syncedSize int64 // bytes of the active segment known to be on disk
	flusherWG  sync.WaitGroup

	// Instrumentation (internal/obs): fsync latency and records per
	// group-commit batch.
	fsyncHist obs.Histogram
	batchHist obs.Histogram
	syncs     atomic.Uint64
	appends   atomic.Uint64
	bytes     atomic.Uint64
	segments  atomic.Uint64
}

// Stats is a point-in-time summary of a Writer's activity.
type Stats struct {
	AppendedLSN uint64
	DurableLSN  uint64
	Appends     uint64
	Syncs       uint64
	Bytes       uint64
	Segments    uint64
	// QueueBytes/QueueRecords gauge the flush queue: records appended
	// but not yet handed to the flusher's write+fsync cycle. A queue
	// that stays large means commits are arriving faster than the log
	// device drains them.
	QueueBytes   uint64
	QueueRecords uint64
	// Fsync is the fsync wall-time histogram (nanoseconds); Batch is the
	// records-per-fsync histogram.
	Fsync obs.HistSnapshot
	Batch obs.HistSnapshot
}

// NewWriter opens the append side of the log in dir, with the next
// appended record getting LSN nextLSN. It always starts a fresh segment
// (created lazily on first flush), so it never needs to reconcile a torn
// tail left by a predecessor — recovery has already truncated it.
func NewWriter(dir string, opts Options, nextLSN uint64) (*Writer, error) {
	opts.sanitize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if nextLSN == 0 {
		nextLSN = 1
	}
	w := &Writer{opts: opts, dir: dir, nextLSN: nextLSN, appended: nextLSN - 1}
	w.work.L = &w.mu
	w.done.L = &w.mu
	w.durable.Store(nextLSN - 1)
	w.flusherWG.Add(1)
	go w.flusher()
	return w, nil
}

// Append assigns the next LSN to one logical operation record and buffers
// it for the flusher. The record is durable only once DurableLSN reaches
// the returned LSN (see WaitDurable).
func (w *Writer) Append(op byte, key []byte, value uint64) (uint64, error) {
	w.mu.Lock()
	if w.closed || w.crashed {
		err := ErrClosed
		if w.crashed {
			err = ErrCrashed
		}
		w.mu.Unlock()
		return 0, err
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appended = lsn
	w.buf = appendRecord(w.buf, op, key, value)
	w.bufRecs++
	w.work.Signal()
	w.mu.Unlock()
	w.appends.Add(1)
	return lsn, nil
}

// AppendedLSN returns the highest LSN assigned so far (0 if none).
func (w *Writer) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// DurableLSN returns the highest LSN guaranteed to survive a crash.
func (w *Writer) DurableLSN() uint64 { return w.durable.Load() }

// WaitDurable blocks until the record with the given LSN is fsynced, the
// writer fails, or it crashes/closes with the record still volatile.
func (w *Writer) WaitDurable(lsn uint64) error {
	if w.durable.Load() >= lsn {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable.Load() < lsn {
		if w.err != nil {
			return w.err
		}
		if w.crashed {
			return ErrCrashed
		}
		if w.closed {
			return ErrClosed
		}
		w.done.Wait()
	}
	return nil
}

// Sync flushes and fsyncs everything appended so far.
func (w *Writer) Sync() error {
	w.mu.Lock()
	lsn := w.appended
	w.mu.Unlock()
	if lsn == 0 {
		return nil
	}
	return w.WaitDurable(lsn)
}

// Close drains and fsyncs all buffered records, then closes the active
// segment. Further appends fail with ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed || w.crashed {
		w.mu.Unlock()
		w.flusherWG.Wait()
		return w.err
	}
	w.closed = true
	w.work.Signal()
	w.mu.Unlock()
	w.flusherWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	return w.err
}

// Crash simulates a power failure: buffered records are discarded and the
// active segment is truncated to its last fsynced byte, so exactly the
// records with LSN <= DurableLSN survive into recovery. In-flight and
// later commits fail with ErrCrashed. With Options.NoSync every written
// byte counts as durable.
func (w *Writer) Crash() error {
	w.mu.Lock()
	if w.closed || w.crashed {
		w.mu.Unlock()
		w.flusherWG.Wait()
		return nil
	}
	w.crashed = true
	w.buf = nil
	w.bufRecs = 0
	w.work.Signal()
	w.done.Broadcast()
	w.mu.Unlock()
	w.flusherWG.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if w.syncedSize <= headerSize {
			// Nothing of this segment is durable; a real power failure
			// could leave it absent entirely. Drop it.
			name := w.f.Name()
			w.f.Close()
			os.Remove(name)
		} else {
			w.f.Truncate(w.syncedSize)
			w.f.Close()
		}
		w.f = nil
	}
	return nil
}

// Stats returns a snapshot of the writer's counters and histograms.
func (w *Writer) Stats() Stats {
	st := Stats{
		DurableLSN: w.durable.Load(),
		Appends:    w.appends.Load(),
		Syncs:      w.syncs.Load(),
		Bytes:      w.bytes.Load(),
		Segments:   w.segments.Load(),
	}
	w.mu.Lock()
	st.AppendedLSN = w.appended
	st.QueueBytes = uint64(len(w.buf))
	st.QueueRecords = uint64(w.bufRecs)
	w.mu.Unlock()
	w.fsyncHist.AddTo(&st.Fsync)
	w.batchHist.AddTo(&st.Batch)
	return st
}

// flusher is the group-commit loop: it sleeps until records are pending,
// then writes and fsyncs the whole batch and advances durableLSN by the batch's last
// LSN. Everything that piles up during one fsync commits in the next.
func (w *Writer) flusher() {
	defer w.flusherWG.Done()
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && !w.closed && !w.crashed {
			w.work.Wait()
		}
		if w.crashed || (w.closed && len(w.buf) == 0) || w.err != nil {
			w.mu.Unlock()
			return
		}
		chunk := w.buf
		recs := w.bufRecs
		hi := w.appended
		w.buf = nil
		w.bufRecs = 0
		w.mu.Unlock()

		if err := w.flushChunk(chunk, recs, hi); err != nil {
			w.mu.Lock()
			w.err = err
			w.done.Broadcast()
			w.mu.Unlock()
			return
		}
	}
}

// flushChunk writes one batch to the active segment (rotating first if the
// segment is full), fsyncs, and publishes durability.
func (w *Writer) flushChunk(chunk []byte, recs int, hi uint64) error {
	if w.f == nil || w.fileSize >= w.opts.SegmentSize {
		first := hi - uint64(recs) + 1
		if err := w.rotate(first); err != nil {
			return err
		}
	}
	if testFault != nil {
		n, err := testFault("write", len(chunk))
		if n > len(chunk) {
			n = len(chunk)
		}
		if n > 0 {
			if _, werr := w.f.Write(chunk[:n]); werr != nil && err == nil {
				err = werr
			}
		}
		w.fileSize += int64(n)
		if err == nil && n < len(chunk) {
			err = errors.New("wal: injected short write")
		}
		if err != nil {
			return err
		}
	} else {
		if _, err := w.f.Write(chunk); err != nil {
			return err
		}
		w.fileSize += int64(len(chunk))
	}
	if err := w.fsync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.syncedSize = w.fileSize
	w.mu.Unlock()
	w.durable.Store(hi)
	w.bytes.Add(uint64(len(chunk)))
	w.batchHist.RecordNS(int64(recs))
	w.mu.Lock()
	w.done.Broadcast()
	w.mu.Unlock()
	return nil
}

// fsync syncs the active segment, timing it into the fsync histogram.
func (w *Writer) fsync() error {
	if testFault != nil {
		if _, err := testFault("sync", 0); err != nil {
			return err
		}
	}
	if w.opts.NoSync {
		return nil
	}
	t0 := obs.Now()
	err := w.f.Sync()
	w.fsyncHist.RecordNS(obs.Now() - t0)
	w.syncs.Add(1)
	return err
}

// rotate fsyncs and closes the active segment (if any) and starts a new
// one whose first record will have LSN first. The header is fsynced
// immediately so the truncation point after a crash is never inside it.
func (w *Writer) rotate(first uint64) error {
	if w.f != nil {
		if err := w.fsync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(first)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeSegmentHeader(first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.fileSize = headerSize
	if err := w.fsync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.syncedSize = headerSize
	w.mu.Unlock()
	w.segments.Add(1)
	if err := syncDir(w.dir); err != nil {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a freshly created or renamed file's
// directory entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
