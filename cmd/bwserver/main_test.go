package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bwproto"
	"repro/internal/obs"
)

// argsEnv, when set, makes the test binary run bwserver's main with these
// arguments instead of the tests.
const argsEnv = "BWSERVER_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func freeAddr(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestServeDrainsOnSIGTERM runs bwserver (this test binary re-executed as
// it) with four shards and a debug surface, writes through it, and reads
// its /metrics, which must parse as Prometheus text and carry the shard,
// mapping-table and sequence-word wait series, and its /debug/stats,
// which must be JSON.
// With -trace, /debug/latency and /debug/flightrec must answer JSON,
// /metrics must carry bwtree_chain_depth and /debug/phasetrace must hold
// Chrome "X" slices. SIGTERM must then drain the server, which exits 0.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	t.Run("plain", func(t *testing.T) { serveAndDrain(t, false) })
	t.Run("trace", func(t *testing.T) { serveAndDrain(t, true) })
}

func serveAndDrain(t *testing.T, trace bool) {
	addr, debug := freeAddr(t), freeAddr(t)
	args := "-addr " + addr + " -shards 4 -debug-addr " + debug
	if trace {
		args += " -trace"
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var c *bwproto.Conn
	for deadline := time.Now().Add(20 * time.Second); c == nil; time.Sleep(20 * time.Millisecond) {
		var err error
		if c, err = bwproto.Dial(addr); err != nil && time.Now().After(deadline) {
			t.Fatalf("bwserver did not come up: %v\n%s", err, out.String())
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if ok, err := c.Insert(binary.BigEndian.AppendUint64(nil, i), i); !ok || err != nil {
			t.Fatalf("insert %d: %v %v", i, ok, err)
		}
	}
	c.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + debug + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	metrics := get("/metrics")
	if _, err := obs.ParsePrometheus(bytes.NewReader(metrics)); err != nil {
		t.Errorf("/metrics: %v", err)
	}
	series := []string{"bwtree_shards", "bwtree_mapping_live", "bwtree_seq_waits_total"}
	if trace {
		series = append(series, "bwtree_chain_depth")
	}
	for _, name := range series {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	paths := []string{"/debug/stats"}
	if trace {
		paths = append(paths, "/debug/latency", "/debug/flightrec")
	}
	for _, path := range paths {
		if body := get(path); !json.Valid(body) {
			t.Errorf("%s is not JSON: %s", path, body)
		}
	}
	if trace {
		var doc struct {
			TraceEvents []struct{ Ph string } `json:"traceEvents"`
		}
		if err := json.Unmarshal(get("/debug/phasetrace"), &doc); err != nil {
			t.Errorf("/debug/phasetrace: %v", err)
		}
		slices := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				slices++
			}
		}
		if slices == 0 {
			t.Errorf("/debug/phasetrace holds no X slices among %d events", len(doc.TraceEvents))
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("bwserver after SIGTERM: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "served") {
		t.Errorf("bwserver did not report its drain:\n%s", out.String())
	}
}
