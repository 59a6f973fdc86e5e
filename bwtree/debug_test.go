package bwtree

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

func TestDebugServer(t *testing.T) {
	opts := DefaultOptions()
	opts.LatencyHistograms = true
	opts.TraceRingSize = 1024
	tr := New(opts)
	defer tr.Close()

	s := tr.NewSession()
	defer s.Release()
	key := make([]byte, 8)
	for i := uint64(0); i < 2000; i++ {
		binary.BigEndian.PutUint64(key, i)
		s.Insert(key, i)
	}
	for i := uint64(0); i < 2000; i++ {
		binary.BigEndian.PutUint64(key, i)
		s.Lookup(key, nil)
	}

	srv, err := ServeDebug(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /debug/stats: counters, gauges and latency quantiles.
	var stats struct {
		Counters map[string]uint64             `json:"counters"`
		Gauges   map[string]float64            `json:"gauges"`
		Latency  map[string]map[string]float64 `json:"latency"`
	}
	getJSON(t, base+"/debug/stats", &stats)
	if got := stats.Counters["ops"]; got != 4000 {
		t.Fatalf("counters.ops = %d, want 4000", got)
	}
	if _, ok := stats.Gauges["abort_rate"]; !ok {
		t.Fatal("gauges missing abort_rate")
	}
	ins, ok := stats.Latency["insert"]
	if !ok {
		t.Fatalf("latency summary missing insert class: %v", stats.Latency)
	}
	if ins["count"] != 2000 || ins["p99_us"] <= 0 {
		t.Fatalf("insert latency = %v, want count 2000 and positive p99", ins)
	}

	// /debug/vars: Go's standard expvar JSON.
	var vars map[string]json.RawMessage
	getJSON(t, base+"/debug/vars", &vars)
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}

	// /debug/latency mirrors the summary.
	var lat map[string]map[string]float64
	getJSON(t, base+"/debug/latency", &lat)
	if _, ok := lat["read"]; !ok {
		t.Fatal("/debug/latency missing read class")
	}

	// /debug/trace drains events; a second drain comes back empty.
	var trace struct {
		Events  []TraceEvent `json:"events"`
		Dropped uint64       `json:"dropped"`
	}
	getJSON(t, base+"/debug/trace", &trace)
	if len(trace.Events) == 0 {
		t.Fatal("no trace events after 2000 inserts")
	}
	var again struct {
		Events []TraceEvent `json:"events"`
	}
	getJSON(t, base+"/debug/trace", &again)
	if len(again.Events) != 0 {
		t.Fatalf("second trace drain returned %d events, want 0", len(again.Events))
	}

	// The index page lists the mounted endpoints.
	resp, err := http.Get(base + "/debug")
	if err != nil {
		t.Fatalf("GET /debug: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "/debug/pprof/"; !strings.Contains(string(body), want) {
		t.Fatalf("index page missing %q:\n%s", want, body)
	}
}

func TestDebugServerDisabledSurfaces(t *testing.T) {
	// Default options: no histograms, no tracer — those endpoints 404
	// but counters still serve.
	tr := New(DefaultOptions())
	defer tr.Close()
	srv, err := ServeDebug(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for _, path := range []string{"/debug/latency", "/debug/trace"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	var stats struct {
		Counters map[string]uint64 `json:"counters"`
	}
	getJSON(t, base+"/debug/stats", &stats)
	if _, ok := stats.Counters["ops"]; !ok {
		t.Fatal("stats missing counters.ops")
	}
}
