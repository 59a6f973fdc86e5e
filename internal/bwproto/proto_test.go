package bwproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/bwtree"
	"repro/internal/shard"
)

// smallTreeOpts forces splits/consolidations at test scale.
func smallTreeOpts() bwtree.Options {
	o := bwtree.DefaultOptions()
	o.LeafNodeSize = 16
	o.InnerNodeSize = 8
	o.LeafChainLength = 4
	o.LeafMergeSize = 4
	o.InnerMergeSize = 2
	return o
}

// startServer spins up a volatile sharded server on a loopback port.
func startServer(t *testing.T, shards int) (*Server, string) {
	t.Helper()
	return startServerWith(t, shards, smallTreeOpts())
}

// startServerWith is startServer over trees with the given options.
func startServerWith(t *testing.T, shards int, opts bwtree.Options) (*Server, string) {
	t.Helper()
	r, err := shard.NewRouter("hash", shards)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.Open(shard.Options{Shards: shards, Router: r, Tree: opts})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(st)
	if err := sv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sv.Shutdown(2 * time.Second)
		st.Close()
	})
	return sv, sv.Addr()
}

func dialConn(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRoundTrip drives the whole op surface through real sockets.
func TestRoundTrip(t *testing.T) {
	_, addr := startServer(t, 4)
	c := dialConn(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	mustWrite := func(what string, ok bool, err error, want bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ok != want {
			t.Fatalf("%s = %v, want %v", what, ok, want)
		}
	}
	ok, err := c.Insert([]byte("apple"), 1)
	mustWrite("insert apple", ok, err, true)
	ok, err = c.Insert([]byte("banana"), 2)
	mustWrite("insert banana", ok, err, true)
	ok, err = c.Insert([]byte("cherry"), 3)
	mustWrite("insert cherry", ok, err, true)
	ok, err = c.Insert([]byte("apple"), 9)
	mustWrite("duplicate insert", ok, err, false)
	vals, err := c.Lookup([]byte("apple"), nil)
	if err != nil || len(vals) != 1 || vals[0] != 1 {
		t.Fatalf("lookup apple = %v (%v), want [1]", vals, err)
	}
	ok, err = c.Update([]byte("apple"), 10)
	mustWrite("update apple", ok, err, true)
	ok, err = c.Delete([]byte("banana"), 2)
	mustWrite("delete banana", ok, err, true)
	ok, err = c.Delete([]byte("banana"), 2)
	mustWrite("re-delete banana", ok, err, false)
	vals, err = c.Lookup([]byte("banana"), vals[:0])
	if err != nil || len(vals) != 0 {
		t.Fatalf("lookup banana = %v (%v), want absent", vals, err)
	}

	var got []string
	n, err := c.Scan([]byte("a"), 10, func(k []byte, v uint64) bool {
		got = append(got, fmt.Sprintf("%s=%d", k, v))
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []string{"apple=10", "cherry=3"}
	if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v (n=%d), want %v", got, n, want)
	}

	// Batch: mixed window, results in order.
	ops := []BatchOp{
		{Op: OpSet, Key: []byte("date"), Val: 4},
		{Op: OpGet, Key: []byte("date")},
		{Op: OpUpd, Key: []byte("date"), Val: 40},
		{Op: OpGet, Key: []byte("date")},
		{Op: OpDel, Key: []byte("date"), Val: 40},
		{Op: OpGet, Key: []byte("date")},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !ops[0].OK || !ops[2].OK || !ops[4].OK {
		t.Fatalf("batch writes = %v %v %v, want all true", ops[0].OK, ops[2].OK, ops[4].OK)
	}
	if len(ops[1].Vals) != 1 || ops[1].Vals[0] != 4 {
		t.Fatalf("batch get after set = %v, want [4]", ops[1].Vals)
	}
	if len(ops[3].Vals) != 1 || ops[3].Vals[0] != 40 {
		t.Fatalf("batch get after upd = %v, want [40]", ops[3].Vals)
	}
	if len(ops[5].Vals) != 0 {
		t.Fatalf("batch get after del = %v, want absent", ops[5].Vals)
	}

	blob, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var stats struct {
		Shards int    `json:"shards"`
		Router string `json:"router"`
	}
	if err := json.Unmarshal(blob, &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, blob)
	}
	if stats.Shards != 4 || stats.Router != "hash" {
		t.Fatalf("stats = %+v, want 4 hash shards", stats)
	}
}

// rawConn is a byte-level protocol driver for conformance tests.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// frame assembles one wire frame from op and payload.
func frame(reqID uint32, op byte, payload []byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(1+4+len(payload)))
	b = binary.LittleEndian.AppendUint32(b, reqID)
	b = append(b, op)
	return append(b, payload...)
}

// send writes raw bytes.
func (rc *rawConn) send(b []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

// recv reads one response frame.
func (rc *rawConn) recv() (reqID uint32, status byte, payload []byte, err error) {
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var lenBuf [4]byte
	if _, err = io.ReadFull(rc.br, lenBuf[:]); err != nil {
		return
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	buf := make([]byte, n)
	if _, err = io.ReadFull(rc.br, buf); err != nil {
		return
	}
	return binary.LittleEndian.Uint32(buf), buf[4], buf[headerLen:], nil
}

// expectErr reads one response and asserts StatusErr with the given reqID.
func (rc *rawConn) expectErr(wantID uint32) string {
	rc.t.Helper()
	id, status, payload, err := rc.recv()
	if err != nil {
		rc.t.Fatalf("reading error response: %v", err)
	}
	if id != wantID || status != StatusErr {
		rc.t.Fatalf("response = (id=%d, status=0x%02x), want (id=%d, StatusErr)", id, status, wantID)
	}
	r := &reader{buf: payload}
	msg := r.bytes(int(r.u16("len")), "msg")
	return string(msg)
}

// expectClosed asserts the server closes the connection.
func (rc *rawConn) expectClosed() {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(rc.br); err != nil {
		rc.t.Fatalf("connection not closed cleanly: %v", err)
	}
}

// TestProtocolConformance drives malformed frames at the server: every
// decodable-but-invalid request must produce StatusErr in request order
// with the connection still usable; only an unframeable stream closes it.
func TestProtocolConformance(t *testing.T) {
	_, addr := startServer(t, 2)

	key := func(s string) []byte {
		var b []byte
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		return append(b, s...)
	}

	recoverable := []struct {
		name    string
		payload []byte
		op      byte
	}{
		{"unknown opcode", key("k"), 0x99},
		{"empty key", key(""), OpGet},
		{"oversized key", key(string(make([]byte, MaxKey+1))), OpGet},
		{"truncated key", []byte{10, 0, 'a', 'b'}, OpGet},
		{"set missing value", key("k"), OpSet},
		{"trailing bytes", append(key("k"), 0xEE), OpGet},
		{"scan missing limit", key("k"), OpScan},
		{"scan over limit", append(key("k"), binary.LittleEndian.AppendUint32(nil, MaxScan+1)...), OpScan},
		{"batch truncated count", []byte{7}, OpBatch},
		{"batch over limit", binary.LittleEndian.AppendUint16(nil, MaxBatch+1), OpBatch},
		{"batch bad sub-op", append(binary.LittleEndian.AppendUint16(nil, 1), append([]byte{0x55}, key("k")...)...), OpBatch},
		{"batch truncated tail", append(binary.LittleEndian.AppendUint16(nil, 2), append([]byte{OpGet}, key("k")...)...), OpBatch},
		{"stats trailing bytes", []byte{1, 2, 3}, OpStats},
		{"ping trailing bytes", []byte{9}, 0x99},
	}
	for _, tc := range recoverable {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			// Malformed frame and a valid ping in one write: the error
			// response must come first, then the pong — request order.
			burst := append(frame(1, tc.op, tc.payload), frame(2, OpPing, nil)...)
			rc.send(burst)
			if msg := rc.expectErr(1); msg == "" {
				t.Fatal("empty error message")
			}
			id, status, _, err := rc.recv()
			if err != nil || id != 2 || status != StatusOK {
				t.Fatalf("ping after error = (id=%d, status=0x%02x, err=%v), want OK", id, status, err)
			}
		})
	}

	fatal := []struct {
		name string
		raw  []byte
	}{
		{"zero length prefix", binary.LittleEndian.AppendUint32(nil, 0)},
		{"undersized length prefix", binary.LittleEndian.AppendUint32(nil, 3)},
		{"oversized length prefix", binary.LittleEndian.AppendUint32(nil, MaxFrame+1)},
	}
	for _, tc := range fatal {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			rc.send(tc.raw)
			rc.expectErr(0)
			rc.expectClosed()
		})
	}
}

// TestPartialFrames drips a valid request across many small writes; the
// server must wait for the full frame and then answer normally.
func TestPartialFrames(t *testing.T) {
	_, addr := startServer(t, 2)
	rc := dialRaw(t, addr)
	full := frame(7, OpSet, append([]byte{3, 0, 'k', 'e', 'y'}, binary.LittleEndian.AppendUint64(nil, 42)...))
	for _, b := range full {
		rc.send([]byte{b})
		time.Sleep(time.Millisecond)
	}
	id, status, payload, err := rc.recv()
	if err != nil || id != 7 || status != StatusOK || len(payload) != 1 || payload[0] != 1 {
		t.Fatalf("dripped set = (id=%d, status=0x%02x, payload=%v, err=%v), want OK true", id, status, payload, err)
	}
}

// TestMidRequestDisconnect tears connections mid-frame at every prefix
// length of a valid request; the server must survive (no panic, no leaked
// connection) and keep serving others.
func TestMidRequestDisconnect(t *testing.T) {
	sv, addr := startServer(t, 2)
	full := frame(1, OpSet, append([]byte{3, 0, 'a', 'b', 'c'}, binary.LittleEndian.AppendUint64(nil, 1)...))
	for cut := 1; cut < len(full); cut++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(full[:cut])
		conn.Close()
	}
	// The server still answers a healthy client.
	c := dialConn(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after torn connections: %v", err)
	}
	// Every torn connection drains from the registry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sv.Stats().ConnsLive <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still live after teardown", sv.Stats().ConnsLive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedBurst writes a thousand requests before reading anything;
// responses must come back complete and in request order.
func TestPipelinedBurst(t *testing.T) {
	_, addr := startServer(t, 4)
	rc := dialRaw(t, addr)

	const nReq = 1000
	var burst []byte
	var keyBuf [8]byte
	for i := 0; i < nReq; i++ {
		binary.BigEndian.PutUint64(keyBuf[:], uint64(i))
		payload := binary.LittleEndian.AppendUint16(nil, 8)
		payload = append(payload, keyBuf[:]...)
		if i%2 == 0 {
			payload = binary.LittleEndian.AppendUint64(payload, uint64(i)*3)
			burst = append(burst, frame(uint32(i), OpSet, payload)...)
		} else {
			burst = append(burst, frame(uint32(i), OpGet, payload)...)
		}
	}
	go rc.send(burst) // concurrent write: the burst exceeds socket buffers

	for i := 0; i < nReq; i++ {
		id, status, payload, err := rc.recv()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if id != uint32(i) || status != StatusOK {
			t.Fatalf("response %d = (id=%d, status=0x%02x), want in-order OK", i, id, status)
		}
		if i%2 == 0 {
			if len(payload) != 1 || payload[0] != 1 {
				t.Fatalf("pipelined set %d = %v, want accepted", i, payload)
			}
		} else {
			// Odd keys were never inserted: empty lookup.
			if len(payload) != 2 || binary.LittleEndian.Uint16(payload) != 0 {
				t.Fatalf("pipelined get %d = %v, want empty", i, payload)
			}
		}
	}
}

// TestRemoteErrorSurfacing checks the client maps StatusErr to
// *RemoteError and keeps the connection usable.
func TestRemoteErrorSurfacing(t *testing.T) {
	_, addr := startServer(t, 2)
	c := dialConn(t, addr)
	_, err := c.Lookup(make([]byte, MaxKey+1), nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("oversized key error = %v, want *RemoteError", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after remote error: %v", err)
	}
}

// TestScanTruncationResume pushes a scan past the frame byte budget so
// the server truncates mid-scan (done=0) and the client transparently
// resumes; the merged result must be the exact ordered key set.
func TestScanTruncationResume(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk load over socket")
	}
	_, addr := startServer(t, 4)
	c := dialConn(t, addr)

	// 70k pairs × ~18 bytes ≈ 1.26 MB > MaxFrame, guaranteeing at least
	// one truncated response even at the MaxScan request size.
	const total = 70000
	var keys [total][8]byte
	ops := make([]BatchOp, 0, MaxBatch)
	for i := 0; i < total; i++ {
		binary.BigEndian.PutUint64(keys[i][:], uint64(i))
		ops = append(ops, BatchOp{Op: OpSet, Key: keys[i][:], Val: uint64(i)})
		if len(ops) == MaxBatch || i == total-1 {
			if err := c.Batch(ops); err != nil {
				t.Fatalf("bulk batch: %v", err)
			}
			for j := range ops {
				if !ops[j].OK {
					t.Fatalf("bulk insert rejected at %d", j)
				}
			}
			ops = ops[:0]
		}
	}

	next := uint64(0)
	n, err := c.Scan(nil, total+1000, func(k []byte, v uint64) bool {
		if got := binary.BigEndian.Uint64(k); got != next || v != next {
			t.Fatalf("scan out of order: got key %d val %d, want %d", got, v, next)
		}
		next++
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n != total {
		t.Fatalf("scan visited %d, want %d", n, total)
	}

	// Early stop: the count includes the pair that said stop.
	seen := 0
	n, err = c.Scan(nil, total, func(k []byte, v uint64) bool {
		seen++
		return seen < 10
	})
	if err != nil || n != 10 {
		t.Fatalf("early-stop scan = %d (%v), want 10", n, err)
	}
}

// TestDurableRoundTripAndShutdown ports the old examples/kvserver
// coverage: a durable sharded store behind the server, graceful shutdown
// with an idle connection force-closed at the drain deadline, and a fresh
// recovery finding the exact final state in the shutdown checkpoint.
func TestDurableRoundTripAndShutdown(t *testing.T) {
	dir := t.TempDir()
	open := func() *shard.Store {
		t.Helper()
		r, err := shard.NewRouter("hash", 4)
		if err != nil {
			t.Fatal(err)
		}
		st, err := shard.Open(shard.Options{
			Shards: 4, Router: r, Tree: smallTreeOpts(),
			WALDir: dir, SyncOnCommit: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	sv := NewServer(st)
	if err := sv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := sv.Addr()

	c := dialConn(t, addr)
	for key, val := range map[string]uint64{"apple": 1, "banana": 2, "cherry": 3} {
		if ok, err := c.Insert([]byte(key), val); err != nil || !ok {
			t.Fatalf("insert %s: ok=%v err=%v", key, ok, err)
		}
	}
	if ok, err := c.Update([]byte("apple"), 10); err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Delete([]byte("banana"), 2); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}

	// An idle connection must not block shutdown past the drain timeout.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	done := make(chan struct{})
	go func() { sv.Shutdown(200 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on the idle connection")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery: the checkpoint carries the whole state, no log replay.
	st2 := open()
	defer st2.Close()
	rec := st2.RecoveryStats()
	if rec.SnapshotKeys != 2 || rec.Replayed != 0 {
		t.Errorf("recovery stats = %+v, want 2 snapshot keys and 0 replayed", rec)
	}
	sess := st2.NewSession()
	defer sess.Release()
	for key, want := range map[string]uint64{"apple": 10, "cherry": 3} {
		out := sess.Lookup([]byte(key), nil)
		if len(out) != 1 || out[0] != want {
			t.Errorf("%s = %v, want [%d]", key, out, want)
		}
	}
	if out := sess.Lookup([]byte("banana"), nil); len(out) != 0 {
		t.Errorf("banana = %v, want absent", out)
	}
	if err := st2.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestWriterBackpressure fills the response queue with scan traffic from
// a client that reads slowly, making sure bounded buffering (not
// unbounded memory) absorbs the burst and everything still arrives.
func TestWriterBackpressure(t *testing.T) {
	_, addr := startServer(t, 2)
	c := dialConn(t, addr)
	var keyBuf [8]byte
	ops := make([]BatchOp, 0, 4096)
	for i := 0; i < 4096; i++ {
		binary.BigEndian.PutUint64(keyBuf[:], uint64(i))
		ops = append(ops, BatchOp{Op: OpSet, Key: bytes.Clone(keyBuf[:]), Val: uint64(i)})
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	// Many scans queued at once, read back slowly.
	var burst []byte
	const nScans = 512
	for i := 0; i < nScans; i++ {
		payload := binary.LittleEndian.AppendUint16(nil, 1)
		payload = append(payload, 0)
		payload = binary.LittleEndian.AppendUint32(payload, 4096)
		burst = append(burst, frame(uint32(i), OpScan, payload)...)
	}
	go rc.send(burst)
	for i := 0; i < nScans; i++ {
		id, status, _, err := rc.recv()
		if err != nil || id != uint32(i) || status != StatusOK {
			t.Fatalf("scan response %d = (id=%d, status=0x%02x, err=%v)", i, id, status, err)
		}
		if i%64 == 0 {
			time.Sleep(5 * time.Millisecond) // slow reader
		}
	}
}
