package bwproto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/index"
)

// RemoteError is a StatusErr response: the server answered, the
// connection is still usable, but the request was rejected.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "bwproto: remote error: " + e.Msg }

// Conn is one client connection. Like an index session it must be used
// by at most one goroutine; open one Conn per worker.
type Conn struct {
	c     net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint32
	wbuf  []byte // request build buffer
	rbuf  []byte // response payload buffer, valid until the next call
}

// Dial connects to a bwproto server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection (tests hand in one end of a
// pipe or a raw socket).
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		c:  nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// roundTrip sends one request frame and reads its response, returning a
// payload reader positioned after the header. A *RemoteError means the
// server rejected the request; any other error means the connection is
// dead.
func (c *Conn) roundTrip(op byte, build func([]byte) []byte) (*reader, error) {
	c.reqID++
	id := c.reqID
	c.wbuf = appendFrame(c.wbuf[:0], id, op, build)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.readResponse(id)
}

// readResponse reads one response frame and matches it to wantID.
func (c *Conn) readResponse(wantID uint32) (*reader, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < headerLen || n > MaxFrame {
		return nil, fmt.Errorf("bwproto: response frame length %d outside [%d, %d]", n, headerLen, MaxFrame)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return nil, err
	}
	gotID := binary.LittleEndian.Uint32(c.rbuf)
	status := c.rbuf[4]
	r := &reader{buf: c.rbuf[headerLen:]}
	if status == StatusErr {
		msg := r.bytes(int(r.u16("error length")), "error message")
		if r.err != nil {
			return nil, fmt.Errorf("bwproto: undecodable error response: %w", r.err)
		}
		return nil, &RemoteError{Msg: string(msg)}
	}
	if gotID != wantID {
		return nil, fmt.Errorf("bwproto: response for request %d while awaiting %d (pipeline desync)", gotID, wantID)
	}
	if status != StatusOK {
		return nil, fmt.Errorf("bwproto: unknown response status 0x%02x", status)
	}
	return r, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	r, err := c.roundTrip(OpPing, func(b []byte) []byte { return b })
	if err != nil {
		return err
	}
	if r.rest() != 0 {
		return fmt.Errorf("bwproto: %d trailing bytes in ping response", r.rest())
	}
	return nil
}

// writeOp round-trips one mutating op and decodes the u8 outcome.
func (c *Conn) writeOp(op byte, key []byte, val uint64) (bool, error) {
	r, err := c.roundTrip(op, func(b []byte) []byte {
		b = appendKey(b, key)
		return binary.LittleEndian.AppendUint64(b, val)
	})
	if err != nil {
		return false, err
	}
	ok := r.u8("write outcome")
	if r.err != nil {
		return false, r.err
	}
	return ok == 1, nil
}

// Insert adds (key, value) with insert-if-absent semantics.
func (c *Conn) Insert(key []byte, val uint64) (bool, error) { return c.writeOp(OpSet, key, val) }

// Update replaces key's value if present.
func (c *Conn) Update(key []byte, val uint64) (bool, error) { return c.writeOp(OpUpd, key, val) }

// Delete removes (key, value).
func (c *Conn) Delete(key []byte, val uint64) (bool, error) { return c.writeOp(OpDel, key, val) }

// Lookup appends key's values to out.
func (c *Conn) Lookup(key []byte, out []uint64) ([]uint64, error) {
	r, err := c.roundTrip(OpGet, func(b []byte) []byte { return appendKey(b, key) })
	if err != nil {
		return out, err
	}
	nvals := int(r.u16("value count"))
	for i := 0; i < nvals; i++ {
		out = append(out, r.u64("value"))
	}
	if r.err != nil {
		return out, r.err
	}
	return out, nil
}

// Scan visits at most n pairs in ascending order from the smallest key
// >= start, issuing as many wire requests as the server's frame budget
// requires (each response carries a done flag; the client resumes from
// the successor of the last received key). Returns the number visited,
// counting a pair whose visit returned false, matching index.Session.
func (c *Conn) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) (int, error) {
	count := 0
	resume := start
	var resumeBuf []byte
	for count < n {
		req := n - count
		if req > MaxScan {
			req = MaxScan
		}
		r, err := c.roundTrip(OpScan, func(b []byte) []byte {
			b = appendKey(b, resume)
			return binary.LittleEndian.AppendUint32(b, uint32(req))
		})
		if err != nil {
			return count, err
		}
		done := r.u8("scan done flag")
		got := int(r.u32("scan count"))
		var lastKey []byte
		for i := 0; i < got; i++ {
			klen := int(r.u16("scan key length"))
			k := r.bytes(klen, "scan key")
			v := r.u64("scan value")
			if r.err != nil {
				return count, r.err
			}
			count++
			if !visit(k, v) {
				return count, nil
			}
			lastKey = k
		}
		if r.err != nil {
			return count, r.err
		}
		if done == 1 {
			return count, nil
		}
		if got == 0 {
			return count, fmt.Errorf("bwproto: empty scan response without done flag")
		}
		// Resume at the successor of the last key. lastKey aliases rbuf,
		// which the next roundTrip overwrites, so copy.
		resumeBuf = append(append(resumeBuf[:0], lastKey...), 0)
		resume = resumeBuf
	}
	return count, nil
}

// BatchOp is one sub-operation of a Batch call: fill Op (OpGet, OpSet,
// OpUpd, OpDel), Key, and Val (writes only); Batch fills OK (writes) or
// Vals (gets, reusing capacity) in place.
type BatchOp struct {
	Op   byte
	Key  []byte
	Val  uint64
	OK   bool
	Vals []uint64
}

// Batch executes ops in order within one frame — one network round trip
// amortized over the whole window, the wire analogue of the tree's
// batched sessions.
func (c *Conn) Batch(ops []BatchOp) error {
	if len(ops) > MaxBatch {
		return fmt.Errorf("bwproto: batch of %d ops exceeds limit %d", len(ops), MaxBatch)
	}
	r, err := c.roundTrip(OpBatch, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(ops)))
		for i := range ops {
			op := &ops[i]
			b = append(b, op.Op)
			b = appendKey(b, op.Key)
			if op.Op != OpGet {
				b = binary.LittleEndian.AppendUint64(b, op.Val)
			}
		}
		return b
	})
	if err != nil {
		return err
	}
	count := int(r.u16("batch count"))
	if count != len(ops) {
		return fmt.Errorf("bwproto: batch response has %d results for %d ops", count, len(ops))
	}
	for i := range ops {
		op := &ops[i]
		sub := r.u8("batch sub-op")
		if r.err == nil && sub != op.Op {
			return fmt.Errorf("bwproto: batch result %d is op 0x%02x, expected 0x%02x", i, sub, op.Op)
		}
		if op.Op == OpGet {
			nvals := int(r.u16("batch value count"))
			op.Vals = op.Vals[:0]
			for j := 0; j < nvals; j++ {
				op.Vals = append(op.Vals, r.u64("batch value"))
			}
		} else {
			op.OK = r.u8("batch outcome") == 1
		}
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// GetVersion reads key with its version stamp — the observation to
// record in a transactional read set (see index.TxnSession).
func (c *Conn) GetVersion(key []byte) (value uint64, ver uint64, found bool, err error) {
	r, err := c.roundTrip(OpGetV, func(b []byte) []byte { return appendKey(b, key) })
	if err != nil {
		return 0, 0, false, err
	}
	f := r.u8("getv found flag")
	value = r.u64("getv value")
	ver = r.u64("getv version")
	if r.err != nil {
		return 0, 0, false, r.err
	}
	return value, ver, f == 1, nil
}

// CommitTxn submits one transactional commit (see index.TxnSession for
// the contract) in a single round trip.
func (c *Conn) CommitTxn(reads []index.TxnRead, writes []index.TxnWrite) (index.TxnResult, error) {
	if len(reads)+len(writes) > MaxTxnOps {
		return index.TxnResult{}, fmt.Errorf("bwproto: txn of %d ops exceeds limit %d", len(reads)+len(writes), MaxTxnOps)
	}
	r, err := c.roundTrip(OpTxn, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(reads)))
		for i := range reads {
			b = appendKey(b, reads[i].Key)
			b = binary.LittleEndian.AppendUint64(b, reads[i].Ver)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(writes)))
		for i := range writes {
			b = append(b, writes[i].Op)
			b = appendKey(b, writes[i].Key)
			b = binary.LittleEndian.AppendUint64(b, writes[i].Value)
		}
		return b
	})
	if err != nil {
		return index.TxnResult{}, err
	}
	status := r.u8("txn status")
	id := r.u64("txn id")
	nvers := int(r.u16("txn version count"))
	vers := make([]uint64, nvers)
	for i := 0; i < nvers; i++ {
		vers[i] = r.u64("txn write version")
	}
	if r.err != nil {
		return index.TxnResult{}, r.err
	}
	res := index.TxnResult{TxnID: id, WriteVers: vers}
	switch status {
	case TxnWireCommitted:
		res.Status = index.TxnCommitted
	case TxnWireConflict:
		res.Status = index.TxnConflict
	default:
		return index.TxnResult{}, fmt.Errorf("bwproto: unknown txn status 0x%02x", status)
	}
	return res, nil
}

// Stats fetches the server's aggregate stats JSON.
func (c *Conn) Stats() (json.RawMessage, error) {
	r, err := c.roundTrip(OpStats, func(b []byte) []byte { return b })
	if err != nil {
		return nil, err
	}
	blob := r.bytes(int(r.u32("stats length")), "stats json")
	if r.err != nil {
		return nil, r.err
	}
	out := make(json.RawMessage, len(blob))
	copy(out, blob)
	return out, nil
}

// NetIndex is an index.Index whose sessions are bwproto connections, so
// the harness and histcheck drive a live server through the same code
// paths they use against an in-process tree.
// Session methods panic on transport errors: the callers are correctness
// and benchmark rigs that own the server's lifetime, where a vanished
// server is a rig bug, not a condition to handle.
type NetIndex struct {
	addr string

	mu    sync.Mutex
	conns []*Conn
}

// DialIndex connects to a bwproto server and verifies liveness with a
// ping.
func DialIndex(addr string) (*NetIndex, error) {
	probe, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	if err := probe.Ping(); err != nil {
		return nil, fmt.Errorf("bwproto: ping %s: %w", addr, err)
	}
	return &NetIndex{addr: addr}, nil
}

// Name identifies the index in reports.
func (ix *NetIndex) Name() string { return "BwServer(" + ix.addr + ")" }

// NewSession dials one connection per session.
func (ix *NetIndex) NewSession() index.Session {
	c, err := Dial(ix.addr)
	if err != nil {
		panic(fmt.Sprintf("bwproto: dial %s: %v", ix.addr, err))
	}
	ix.mu.Lock()
	ix.conns = append(ix.conns, c)
	ix.mu.Unlock()
	return &netSession{ix: ix, c: c}
}

// Close closes every session connection still open.
func (ix *NetIndex) Close() {
	ix.mu.Lock()
	conns := ix.conns
	ix.conns = nil
	ix.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// netSession adapts a Conn to index.BatchSession.
type netSession struct {
	ix  *NetIndex
	c   *Conn
	ops []BatchOp
}

func (s *netSession) fatal(op string, err error) {
	panic(fmt.Sprintf("bwproto: %s against %s: %v", op, s.ix.addr, err))
}

func (s *netSession) Insert(key []byte, value uint64) bool {
	ok, err := s.c.Insert(key, value)
	if err != nil {
		s.fatal("Insert", err)
	}
	return ok
}

func (s *netSession) Update(key []byte, value uint64) bool {
	ok, err := s.c.Update(key, value)
	if err != nil {
		s.fatal("Update", err)
	}
	return ok
}

func (s *netSession) Delete(key []byte, value uint64) bool {
	ok, err := s.c.Delete(key, value)
	if err != nil {
		s.fatal("Delete", err)
	}
	return ok
}

func (s *netSession) Lookup(key []byte, out []uint64) []uint64 {
	out, err := s.c.Lookup(key, out)
	if err != nil {
		s.fatal("Lookup", err)
	}
	return out
}

func (s *netSession) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	got, err := s.c.Scan(start, n, visit)
	if err != nil {
		s.fatal("Scan", err)
	}
	return got
}

func (s *netSession) Release() { s.c.Close() }

// prepBatch sizes the scratch op window.
func (s *netSession) prepBatch(n int) []BatchOp {
	if cap(s.ops) < n {
		s.ops = make([]BatchOp, n)
	}
	return s.ops[:n]
}

// runWriteBatch ships one write batch and collects outcomes.
func (s *netSession) runWriteBatch(op byte, keys [][]byte, vals []uint64, ok []bool) []bool {
	if cap(ok) < len(keys) {
		ok = make([]bool, len(keys))
	}
	ok = ok[:len(keys)]
	for from := 0; from < len(keys); from += MaxBatch {
		to := from + MaxBatch
		if to > len(keys) {
			to = len(keys)
		}
		ops := s.prepBatch(to - from)
		for i := range ops {
			ops[i] = BatchOp{Op: op, Key: keys[from+i], Val: vals[from+i], Vals: ops[i].Vals}
		}
		if err := s.c.Batch(ops); err != nil {
			s.fatal("Batch", err)
		}
		for i := range ops {
			ok[from+i] = ops[i].OK
		}
	}
	return ok
}

func (s *netSession) InsertBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	return s.runWriteBatch(OpSet, keys, vals, ok)
}

func (s *netSession) DeleteBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	return s.runWriteBatch(OpDel, keys, vals, ok)
}

func (s *netSession) LookupBatch(keys [][]byte, visit func(i int, vals []uint64)) {
	for from := 0; from < len(keys); from += MaxBatch {
		to := from + MaxBatch
		if to > len(keys) {
			to = len(keys)
		}
		ops := s.prepBatch(to - from)
		for i := range ops {
			ops[i] = BatchOp{Op: OpGet, Key: keys[from+i], Vals: ops[i].Vals}
		}
		if err := s.c.Batch(ops); err != nil {
			s.fatal("Batch", err)
		}
		for i := range ops {
			visit(from+i, ops[i].Vals)
		}
	}
}
