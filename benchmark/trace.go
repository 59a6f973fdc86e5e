package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call into a layer, recorded from the benchmark's side of
// the layer's exported API. Spans hold no pointers, so the buffers cost
// the collector nothing to scan.
type span struct {
	start int64  // ns since the run's origin
	dur   int32  // ns
	op    uint32 // ordinal of the request, per worker and phase
	name  uint8  // index into spanNames
}

// spanCap bounds one worker's spans in one phase. When the buffer fills,
// every other span is dropped and from then on only every stride-th call is
// kept, so the spans kept are an even sample of the whole window however
// many calls it holds.
const spanCap = 1 << 21

type spanBuf struct {
	spans  []span
	origin time.Time
	op     uint32
	on     bool
	stride int // 1 = every call is kept
	skip   int // calls to pass over before the next one kept
	calls  int // calls seen while on
}

func (b *spanBuf) reset() {
	b.spans, b.on, b.stride, b.skip, b.calls = b.spans[:0], false, 1, 0, 0
}

func (b *spanBuf) add(name uint8, start time.Time) {
	d := time.Since(start)
	if !b.on {
		return
	}
	b.calls++
	if b.skip > 0 {
		b.skip--
		return
	}
	if len(b.spans) == cap(b.spans) {
		half := b.spans[:0]
		for i := 0; i < len(b.spans); i += 2 {
			half = append(half, b.spans[i])
		}
		b.spans, b.stride = half, b.stride*2
	}
	b.spans = append(b.spans, span{start: int64(start.Sub(b.origin)), dur: int32(d), op: b.op, name: name})
	b.skip = b.stride - 1
}

var spanNames []string

// spanName interns a span name; called at set-up, never while measuring.
func spanName(s string) uint8 {
	for i, n := range spanNames {
		if n == s {
			return uint8(i)
		}
	}
	spanNames = append(spanNames, s)
	return uint8(len(spanNames) - 1)
}

// spanP50s returns the median duration in microseconds of each span name
// the buffers hold.
func spanP50s(recs []*spanBuf) map[string]float64 {
	by := map[uint8][]int64{}
	for _, r := range recs {
		for _, s := range r.spans {
			by[s.name] = append(by[s.name], int64(s.dur))
		}
	}
	out := map[string]float64{}
	for id, d := range by {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		out[spanNames[id]] = quantileUS(d, 0.50)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeKeep is how many spans per worker and phase go into the trace
// file; the percentiles use every span kept in memory.
const chromeKeep = 500

// chromeEvents renders the head of each worker's spans. A span's parent is
// the same worker's span with the same request ordinal one boundary in:
// the boundaries run one after another over the same seeded request
// stream, so the ordinal is what links a request across layers.
func chromeEvents(phase, inner string, recs []*spanBuf) []chromeEvent {
	var ev []chromeEvent
	for w, r := range recs {
		n := len(r.spans)
		if n > chromeKeep {
			n = chromeKeep
		}
		for _, s := range r.spans[:n] {
			args := map[string]string{"op": fmt.Sprintf("%s/w%d/%d", phase, w, s.op)}
			if inner != "" {
				args["parent"] = fmt.Sprintf("%s/w%d/%d", inner, w, s.op)
			}
			ev = append(ev, chromeEvent{
				Name: spanNames[s.name], Cat: phase, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: w, Args: args,
			})
		}
	}
	return ev
}

func writeChromeTrace(path string, ev []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": ev, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// netCounts counts socket calls and bytes where they happen: on the
// client's net.Conn and on the connections the server's listener accepts.
type netCounts struct {
	clientReads, clientWrites, serverReads, serverWrites, bytes atomic.Uint64
}

type countConn struct {
	net.Conn
	reads, writes, bytes *atomic.Uint64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
		c.bytes.Add(uint64(n))
	}
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	return n, err
}

func (nc *netCounts) client(c net.Conn) net.Conn {
	return countConn{c, &nc.clientReads, &nc.clientWrites, &nc.bytes}
}

// countListener hands the server counted connections. Only reads add to
// bytes, on both sides, so every byte on the wire is counted once.
type countListener struct {
	net.Listener
	nc *netCounts
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, &l.nc.serverReads, &l.nc.serverWrites, &l.nc.bytes}, nil
}

// echoServer is the floor under every wire latency: a bare TCP server on
// loopback that answers each req-byte frame with a resp-byte frame and
// does nothing else.
type echoServer struct {
	ln        net.Listener
	req, resp int
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     []net.Conn
}

func startEcho(req, resp int) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, req: req, resp: resp}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, c)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				in, out := make([]byte, e.req), make([]byte, e.resp)
				for {
					if _, err := io.ReadFull(c, in); err != nil {
						return
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, nil
}

// client returns one worker's echo round trip.
func (e *echoServer) client(rec *spanBuf) (stepFn, func(), error) {
	c, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	name := spanName("net.echo")
	out, in := make([]byte, e.req), make([]byte, e.resp)
	step := func() (int, int) {
		t := time.Now()
		_, err := c.Write(out)
		if err == nil {
			_, err = io.ReadFull(c, in)
		}
		if rec != nil {
			rec.add(name, t)
		}
		if err != nil {
			return 1, 1
		}
		return 1, 0
	}
	return step, func() { c.Close() }, nil
}

// stop closes the listener and every accepted connection and waits for the
// goroutines to end.
func (e *echoServer) stop() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}
