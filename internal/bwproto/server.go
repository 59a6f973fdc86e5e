package bwproto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/txn"
)

// ServerStats are the network tier's own counters, aggregated across
// connections.
type ServerStats struct {
	ConnsTotal  uint64 `json:"conns_total"`
	ConnsLive   int64  `json:"conns_live"`
	Frames      uint64 `json:"frames"`
	ProtoErrors uint64 `json:"proto_errors"`
}

// Server fronts a sharded store with the bwproto protocol. One Server
// handles any number of concurrent connections; each connection gets its
// own store session (per-shard epoch handles and scratch), a reader
// goroutine that executes requests in arrival order, and a writer
// goroutine so response serialization never blocks request execution —
// request pipelining with strict per-connection response ordering.
type Server struct {
	st  *shard.Store
	txs *txn.Store
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup // live connections
	accept   sync.WaitGroup // the accept loop

	connsTotal  atomic.Uint64
	connsLive   atomic.Int64
	frames      atomic.Uint64
	protoErrors atomic.Uint64
}

// NewServer wraps st; call Serve (usually in a goroutine) to accept.
// The server owns the store's transaction engine: it must be the only
// txn.Store over st, since transaction IDs are allocated per engine.
func NewServer(st *shard.Store) *Server {
	return &Server{st: st, txs: txn.New(st), conns: make(map[net.Conn]struct{})}
}

// Store returns the store the server fronts.
func (sv *Server) Store() *shard.Store { return sv.st }

// Txn returns the server's transaction engine (for stats/metrics).
func (sv *Server) Txn() *txn.Store { return sv.txs }

// Stats snapshots the network-tier counters.
func (sv *Server) Stats() ServerStats {
	return ServerStats{
		ConnsTotal:  sv.connsTotal.Load(),
		ConnsLive:   sv.connsLive.Load(),
		Frames:      sv.frames.Load(),
		ProtoErrors: sv.protoErrors.Load(),
	}
}

// Listen starts listening on addr (port 0 picks a free one) and serves
// in a background goroutine. Use Addr for the bound address.
func (sv *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sv.setListener(ln)
	go sv.Serve(ln)
	return nil
}

// setListener records ln once (Listen already did for its goroutine).
func (sv *Server) setListener(ln net.Listener) {
	sv.mu.Lock()
	if sv.ln == nil {
		sv.ln = ln
	}
	sv.mu.Unlock()
}

// Addr returns the bound address after Listen.
func (sv *Server) Addr() string {
	sv.mu.Lock()
	ln := sv.ln
	sv.mu.Unlock()
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

// Serve accepts connections on ln until the listener closes.
func (sv *Server) Serve(ln net.Listener) {
	sv.setListener(ln)
	sv.accept.Add(1)
	defer sv.accept.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sv.mu.Lock()
		if sv.draining.Load() {
			sv.mu.Unlock()
			conn.Close()
			continue
		}
		sv.conns[conn] = struct{}{}
		sv.mu.Unlock()
		sv.connsTotal.Add(1)
		sv.connsLive.Add(1)
		sv.wg.Add(1)
		go func() {
			defer sv.wg.Done()
			sv.serve(conn)
			sv.mu.Lock()
			delete(sv.conns, conn)
			sv.mu.Unlock()
			sv.connsLive.Add(-1)
		}()
	}
}

// Shutdown stops accepting, waits up to timeout for live connections to
// drain, then force-closes stragglers. The store itself is left open;
// the owner closes (and checkpoints) it.
func (sv *Server) Shutdown(timeout time.Duration) {
	sv.draining.Store(true)
	sv.mu.Lock()
	ln := sv.ln
	sv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	sv.accept.Wait()
	drained := make(chan struct{})
	go func() { sv.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(timeout):
		sv.mu.Lock()
		for conn := range sv.conns {
			conn.Close()
		}
		sv.mu.Unlock()
		<-drained
	}
}

// outQueue is the per-connection response backlog: deep enough that a
// pipelined burst keeps executing while earlier responses serialize,
// bounded so one slow reader cannot hold unbounded memory.
const outQueue = 256

// serve runs one connection: read → execute → enqueue response, with a
// dedicated writer goroutine coalescing flushes across the pipeline.
func (sv *Server) serve(conn net.Conn) {
	defer conn.Close()
	sess := sv.st.NewSession()
	defer sess.Release()
	// The transaction session is built lazily: most connections never
	// issue OpGetV/OpTxn, and the session pins per-shard tree sessions.
	var txs *txn.Session
	defer func() {
		if txs != nil {
			txs.Release()
		}
	}()

	out := make(chan []byte, outQueue)
	var ww sync.WaitGroup
	ww.Add(1)
	go func() {
		defer ww.Done()
		bw := bufio.NewWriterSize(conn, 64<<10)
		for frame := range out {
			if _, err := bw.Write(frame); err != nil {
				conn.Close() // unblock the reader
				for range out {
				}
				return
			}
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					conn.Close()
					for range out {
					}
					return
				}
			}
		}
		bw.Flush()
	}()
	defer ww.Wait()
	defer close(out)

	br := bufio.NewReaderSize(conn, 64<<10)
	var lenBuf [4]byte
	var frame []byte
	var scratch connScratch
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return // clean close or mid-frame disconnect; nothing to answer
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < headerLen || n > MaxFrame {
			// The stream is unframeable from here on: answer with a
			// best-effort error and hang up.
			sv.protoErrors.Add(1)
			out <- errFrame(0, fmt.Sprintf("frame length %d outside [%d, %d]", n, headerLen, MaxFrame))
			return
		}
		if cap(frame) < int(n) {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return // torn frame: the client vanished mid-request
		}
		sv.frames.Add(1)
		reqID := binary.LittleEndian.Uint32(frame)
		op := frame[4]
		getTxs := func() *txn.Session {
			if txs == nil {
				txs = sv.txs.NewSession()
			}
			return txs
		}
		resp, fatal := sv.handle(sess, getTxs, reqID, op, frame[headerLen:], &scratch)
		out <- resp
		if fatal {
			return
		}
	}
}

// connScratch is one connection's decode scratch, reused across its
// frames: the values a lookup returns, and an OpTxn's read and write
// sets.
type connScratch struct {
	vals   []uint64
	reads  []index.TxnRead
	writes []index.TxnWrite
}

// errFrame builds a StatusErr response.
func errFrame(reqID uint32, msg string) []byte {
	return appendFrame(nil, reqID, StatusErr, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
		return append(b, msg...)
	})
}

// handle executes one decoded request and renders its response frame.
// fatal reports that the connection must close after the response is
// written (the store is going away).
func (sv *Server) handle(sess *shard.Session, getTxs func() *txn.Session, reqID uint32, op byte, payload []byte, scratch *connScratch) (resp []byte, fatal bool) {
	r := &reader{buf: payload}
	fail := func(err error) []byte {
		sv.protoErrors.Add(1)
		return errFrame(reqID, err.Error())
	}
	switch op {
	case OpPing:
		return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte { return b }), false

	case OpGet:
		key, err := r.key()
		if err != nil {
			return fail(err), false
		}
		if r.rest() != 0 {
			return fail(fmt.Errorf("%d trailing bytes after Get", r.rest())), false
		}
		scratch.vals = sess.Lookup(key, scratch.vals[:0])
		vals := scratch.vals
		return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
			b = binary.LittleEndian.AppendUint16(b, uint16(len(vals)))
			for _, v := range vals {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
			return b
		}), false

	case OpSet, OpUpd, OpDel:
		key, err := r.key()
		if err != nil {
			return fail(err), false
		}
		val := r.u64("value")
		if r.err != nil {
			return fail(r.err), false
		}
		if r.rest() != 0 {
			return fail(fmt.Errorf("%d trailing bytes after write op", r.rest())), false
		}
		ok, werr := sv.write(sess, op, key, val)
		if werr != nil {
			return errFrame(reqID, "store shutting down: "+werr.Error()), true
		}
		return okFrame(reqID, ok), false

	case OpScan:
		start, err := r.startKey()
		if err != nil {
			return fail(err), false
		}
		n := int(r.u32("scan limit"))
		if r.err != nil {
			return fail(r.err), false
		}
		if r.rest() != 0 {
			return fail(fmt.Errorf("%d trailing bytes after Scan", r.rest())), false
		}
		if n > MaxScan {
			return fail(fmt.Errorf("scan of %d items exceeds limit %d", n, MaxScan)), false
		}
		return sv.scan(sess, reqID, start, n), false

	case OpBatch:
		return sv.batch(sess, reqID, r, &scratch.vals)

	case OpGetV:
		key, err := r.key()
		if err != nil {
			return fail(err), false
		}
		if r.rest() != 0 {
			return fail(fmt.Errorf("%d trailing bytes after GetV", r.rest())), false
		}
		val, ver, found, gerr := getTxs().GetVersion(key)
		if gerr != nil {
			return errFrame(reqID, "store shutting down: "+gerr.Error()), true
		}
		return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
			if found {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.LittleEndian.AppendUint64(b, val)
			return binary.LittleEndian.AppendUint64(b, ver)
		}), false

	case OpTxn:
		return sv.txnCommit(getTxs(), reqID, r, scratch)

	case OpStats:
		if r.rest() != 0 {
			return fail(fmt.Errorf("%d trailing bytes after Stats", r.rest())), false
		}
		blob, err := json.Marshal(map[string]any{
			"tree":   sv.st.Stats(),
			"server": sv.Stats(),
			"shards": sv.st.NumShards(),
			"router": sv.st.Router().Name(),
		})
		if err != nil {
			return fail(err), false
		}
		return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
			return append(b, blob...)
		}), false
	}
	return fail(fmt.Errorf("unknown opcode 0x%02x", op)), false
}

// write dispatches one mutating op.
func (sv *Server) write(sess *shard.Session, op byte, key []byte, val uint64) (bool, error) {
	switch op {
	case OpSet:
		return sess.Insert(key, val)
	case OpUpd:
		return sess.Update(key, val)
	default:
		return sess.Delete(key, val)
	}
}

// okFrame renders a write op's boolean outcome.
func okFrame(reqID uint32, ok bool) []byte {
	return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
		if ok {
			return append(b, 1)
		}
		return append(b, 0)
	})
}

// scan runs a merged cross-shard scan, bounding the response to one
// frame: when the byte budget fills before n pairs, the response is cut
// at the last whole pair with done=0 and the client resumes from the
// successor key. done=1 means the key space itself ran out.
func (sv *Server) scan(sess *shard.Session, reqID uint32, start []byte, n int) []byte {
	const budget = MaxFrame - 64
	// Presize for n pairs with keys as long as start (length prefix,
	// header, done flag and count, then u16 klen + key + u64 value each)
	// so the frame is allocated once instead of grown by doubling. The
	// budget check below keeps the whole frame within budget bytes.
	size := min(4+headerLen+1+4+n*(2+len(start)+8), budget)
	return appendFrame(make([]byte, 0, size), reqID, StatusOK, func(b []byte) []byte {
		doneAt := len(b)
		b = append(b, 0) // done flag, patched below
		countAt := len(b)
		b = append(b, 0, 0, 0, 0)
		count := 0
		truncated := false
		got := sess.Scan(start, n, func(k []byte, v uint64) bool {
			if len(b)+2+len(k)+8 > budget {
				truncated = true
				return false
			}
			b = appendKey(b, k)
			b = binary.LittleEndian.AppendUint64(b, v)
			count++
			return true
		})
		if !truncated && got < n {
			b[doneAt] = 1
		}
		binary.LittleEndian.PutUint32(b[countAt:], uint32(count))
		return b
	})
}

// batch executes one OpBatch frame: sub-operations run sequentially in
// frame order against the per-connection session (one network round trip
// amortized over the whole window) and the response carries one result
// per sub-op in the same order.
func (sv *Server) batch(sess *shard.Session, reqID uint32, r *reader, scratch *[]uint64) ([]byte, bool) {
	count := int(r.u16("batch count"))
	if r.err != nil {
		sv.protoErrors.Add(1)
		return errFrame(reqID, r.err.Error()), false
	}
	if count > MaxBatch {
		sv.protoErrors.Add(1)
		return errFrame(reqID, fmt.Sprintf("batch of %d ops exceeds limit %d", count, MaxBatch)), false
	}
	var werr error
	resp := appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint16(b, uint16(count))
		for i := 0; i < count; i++ {
			sub := r.u8("batch sub-op")
			key, err := r.key()
			if err != nil {
				r.err = fmt.Errorf("batch op %d: %w", i, err)
				return b
			}
			switch sub {
			case OpGet:
				*scratch = sess.Lookup(key, (*scratch)[:0])
				b = append(b, OpGet)
				b = binary.LittleEndian.AppendUint16(b, uint16(len(*scratch)))
				for _, v := range *scratch {
					b = binary.LittleEndian.AppendUint64(b, v)
				}
			case OpSet, OpUpd, OpDel:
				val := r.u64("batch value")
				if r.err != nil {
					return b
				}
				var ok bool
				ok, werr = sv.write(sess, sub, key, val)
				if werr != nil {
					return b
				}
				b = append(b, sub)
				if ok {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			default:
				r.err = fmt.Errorf("batch op %d: unknown sub-opcode 0x%02x", i, sub)
				return b
			}
		}
		if r.rest() != 0 {
			r.err = fmt.Errorf("%d trailing bytes after batch", r.rest())
		}
		return b
	})
	if werr != nil {
		return errFrame(reqID, "store shutting down: "+werr.Error()), true
	}
	if r.err != nil {
		// A malformed tail invalidates the whole frame: writes executed
		// before the parse error have landed (the client learns that from
		// the error and must treat the batch as indeterminate), but the
		// response must be well-formed, so it degrades to StatusErr.
		sv.protoErrors.Add(1)
		return errFrame(reqID, r.err.Error()), false
	}
	return resp, false
}

// txnCommit decodes one OpTxn frame into the connection's scratch sets
// and runs it through the store's transaction engine. Read and write keys
// alias the request frame — CommitTxn retains neither them nor the sets
// past the call.
func (sv *Server) txnCommit(txs *txn.Session, reqID uint32, r *reader, scratch *connScratch) ([]byte, bool) {
	nreads := int(r.u16("txn read count"))
	if r.err != nil {
		sv.protoErrors.Add(1)
		return errFrame(reqID, r.err.Error()), false
	}
	if nreads > MaxTxnOps {
		sv.protoErrors.Add(1)
		return errFrame(reqID, fmt.Sprintf("txn of %d reads exceeds limit %d", nreads, MaxTxnOps)), false
	}
	reads := scratch.reads[:0]
	for i := 0; i < nreads; i++ {
		key, err := r.key()
		if err != nil {
			sv.protoErrors.Add(1)
			return errFrame(reqID, fmt.Sprintf("txn read %d: %v", i, err)), false
		}
		ver := r.u64("txn read version")
		if r.err != nil {
			sv.protoErrors.Add(1)
			return errFrame(reqID, r.err.Error()), false
		}
		reads = append(reads, index.TxnRead{Key: key, Ver: ver})
	}
	nwrites := int(r.u16("txn write count"))
	if r.err != nil {
		sv.protoErrors.Add(1)
		return errFrame(reqID, r.err.Error()), false
	}
	if nreads+nwrites > MaxTxnOps {
		sv.protoErrors.Add(1)
		return errFrame(reqID, fmt.Sprintf("txn of %d ops exceeds limit %d", nreads+nwrites, MaxTxnOps)), false
	}
	writes := scratch.writes[:0]
	for i := 0; i < nwrites; i++ {
		op := r.u8("txn write op")
		key, err := r.key()
		if err != nil {
			sv.protoErrors.Add(1)
			return errFrame(reqID, fmt.Sprintf("txn write %d: %v", i, err)), false
		}
		val := r.u64("txn write value")
		if r.err != nil {
			sv.protoErrors.Add(1)
			return errFrame(reqID, r.err.Error()), false
		}
		if op != index.TxnPut && op != index.TxnDel {
			sv.protoErrors.Add(1)
			return errFrame(reqID, fmt.Sprintf("txn write %d: unknown op 0x%02x", i, op)), false
		}
		writes = append(writes, index.TxnWrite{Op: op, Key: key, Value: val})
	}
	if r.rest() != 0 {
		sv.protoErrors.Add(1)
		return errFrame(reqID, fmt.Sprintf("%d trailing bytes after Txn", r.rest())), false
	}
	scratch.reads, scratch.writes = reads, writes
	res, err := txs.CommitTxn(reads, writes)
	if err != nil {
		if err == txn.ErrDuplicateWriteKey {
			sv.protoErrors.Add(1)
			return errFrame(reqID, err.Error()), false
		}
		return errFrame(reqID, "store shutting down: "+err.Error()), true
	}
	return appendFrame(nil, reqID, StatusOK, func(b []byte) []byte {
		status := byte(TxnWireCommitted)
		if res.Status == index.TxnConflict {
			status = TxnWireConflict
		}
		b = append(b, status)
		b = binary.LittleEndian.AppendUint64(b, res.TxnID)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(writes)))
		for i := 0; i < len(writes); i++ {
			var v uint64
			if i < len(res.WriteVers) {
				v = res.WriteVers[i]
			}
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}), false
}

// ErrServerClosed mirrors net.ErrClosed for callers that race Shutdown.
var ErrServerClosed = errors.New("bwproto: server closed")
