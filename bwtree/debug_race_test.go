package bwtree

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/histcheck"
	"repro/internal/obs"
)

// hammer GETs url repeatedly until stop, handing each 200 body to check.
// Run it under -race against a mutating tree: it proves the debug
// surfaces never observe torn state and never serve unparseable output.
func hammer(t *testing.T, url string, stop *atomic.Bool, check func([]byte) error) {
	t.Helper()
	for !stop.Load() {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("GET %s: read: %v", url, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", url, resp.StatusCode)
			return
		}
		if err := check(body); err != nil {
			t.Errorf("GET %s: %v\n%s", url, err, body)
			return
		}
	}
}

// mutateLoad runs nw workers over a mixed single-op workload until stop.
func mutateLoad(stop *atomic.Bool, nw int, newSession func() interface {
	Release()
}, work func(s any, i uint64)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newSession()
			defer s.Release()
			for i := uint64(w); !stop.Load(); i += uint64(nw) {
				work(s, i)
			}
		}(w)
	}
	return &wg
}

func checkPrometheus(body []byte) error {
	n, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no samples")
	}
	return nil
}

func checkFlightrec(body []byte) error {
	var fr struct {
		Ops   []OpSummary `json:"ops"`
		Count int         `json:"count"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return err
	}
	if len(fr.Ops) != fr.Count {
		return fmt.Errorf("count %d != len(ops) %d", fr.Count, len(fr.Ops))
	}
	for _, op := range fr.Ops {
		if op.Dur < 0 {
			return fmt.Errorf("negative duration in %+v", op)
		}
	}
	return nil
}

func checkShape(body []byte) error {
	var shape map[string]any
	if err := json.Unmarshal(body, &shape); err != nil {
		return err
	}
	for _, k := range []string{"leaf_nodes", "pooled_slabs", "pooled_slab_bytes", "mapping_bytes"} {
		if _, ok := shape[k]; !ok {
			return fmt.Errorf("missing %s", k)
		}
	}
	return nil
}

// TestDebugSurfacesUnderMutation hammers /metrics, /debug/shape, and
// /debug/flightrec while worker goroutines mutate a deep-traced tree.
// Meaningful under -race; the parse checks also catch torn text output.
func TestDebugSurfacesUnderMutation(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	tr := New(opts)
	defer tr.Close()

	srv, err := ServeDebug(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var stop atomic.Bool
	wg := mutateLoad(&stop, 4, func() interface{ Release() } { return tr.NewSession() },
		func(s any, i uint64) {
			ses := s.(*Session)
			key := make([]byte, 8)
			binary.BigEndian.PutUint64(key, i%100_000)
			switch i % 5 {
			case 0:
				ses.Insert(key, i)
			case 1:
				ses.Update(key, i)
			case 2:
				ses.Lookup(key, nil)
			case 3:
				ses.Delete(key, i)
			default:
				ses.Scan(key, 8, func([]byte, uint64) bool { return true })
			}
		})

	var hwg sync.WaitGroup
	for url, check := range map[string]func([]byte) error{
		base + "/metrics":             checkPrometheus,
		base + "/debug/shape":         checkShape,
		base + "/debug/flightrec":     checkFlightrec,
		base + "/debug/phasetrace":    checkChromeTraceBody,
		base + "/debug/flightrec?n=7": checkFlightrec,
	} {
		hwg.Add(1)
		go func(url string, check func([]byte) error) {
			defer hwg.Done()
			hammer(t, url, &stop, check)
		}(url, check)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	hwg.Wait()
	wg.Wait()
}

func checkChromeTraceBody(body []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	return json.Unmarshal(body, &doc)
}

// TestDurableDebugSurfacesUnderMutation is the durable variant, run as
// the crash soak with deep tracing on: /metrics (with the WAL, epoch and
// chain-depth series), /debug/shape and /debug/flightrec serve while the
// workers commit, checkpoints race them and the log crashes, and the
// phase traces sampled before the crash export as Chrome trace events
// with op slices.
func TestDurableDebugSurfacesUnderMutation(t *testing.T) {
	seed, dur, workers := soakSettings(t, time.Second, 4)
	opts := histcheck.SoakOptions()
	opts.Trace = true
	checkDurableMetrics := func(body []byte) error {
		if err := checkPrometheus(body); err != nil {
			return err
		}
		for _, want := range []string{"bwtree_wal_queue_records", "bwtree_checkpoint_age_seconds", "bwtree_epoch_lag", "bwtree_chain_depth"} {
			// A summary with no observation is not rendered, and only
			// per-op probes observe chain depths.
			if want == "bwtree_chain_depth" && !deepProbes {
				continue
			}
			if !strings.Contains(string(body), want) {
				return fmt.Errorf("missing %s", want)
			}
		}
		return nil
	}
	var traces []OpTrace
	crashRun{opts: opts, keys: 20000, sync: true, checkpoint: min(time.Second, dur/8), crashes: 1,
		observe: func(d *Durable) func() {
			srv, err := ServeDurableDebug(d, "127.0.0.1:0")
			if err != nil {
				t.Fatalf("ServeDurableDebug: %v", err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for path, check := range map[string]func([]byte) error{
				"/metrics":         checkDurableMetrics,
				"/debug/shape":     checkShape,
				"/debug/flightrec": checkFlightrec,
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hammer(t, "http://"+srv.Addr()+path, &stop, check)
				}()
			}
			return func() {
				stop.Store(true)
				wg.Wait()
				srv.Close()
				traces = d.Tree().PhaseTraces()
				if age := d.CheckpointAge(); age > time.Minute {
					t.Errorf("CheckpointAge = %v after a soak with checkpoints", age)
				}
			}
		}}.run(t, seed, dur, workers)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names[e.Name]++
		}
	}
	if deepProbes && len(names) == 0 {
		t.Fatalf("%d sampled ops exported no op slices", len(traces))
	}
	t.Logf("%d sampled ops; slices: %v", len(traces), names)
}

// TestPartitionedDurableDebugVars serves a two-partition durable store's
// debug surface while sessions commit to both partitions, then, once
// quiescent, requires its tree counters to cover every partition: ops is
// the sum of every partition tree's Ops (a surface over one partition's
// tree reads short), and each partition's shardNN_ops and shape entry are
// that tree's own. Every counter, gauge and shape key of the one-tree
// surface is kept, next to the log's.
func TestPartitionedDurableDebugVars(t *testing.T) {
	topts := DefaultOptions()
	topts.Trace = true
	d, err := OpenDurable(t.TempDir(), DurableOptions{Tree: topts, Router: lastDigitRouter(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv, err := ServeDurableDebug(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var stop atomic.Bool
	wg := mutateLoad(&stop, 4, func() interface{ Release() } { return d.NewSession() },
		func(s any, i uint64) {
			ses := s.(*DurableSession)
			key := make([]byte, 8)
			binary.BigEndian.PutUint64(key, i%50_000)
			switch i % 4 {
			case 0:
				ses.Insert(key, i)
			case 1:
				ses.Update(key, i)
			case 2:
				ses.Lookup(key, nil)
			default:
				ses.Delete(key, i)
			}
		})
	var hwg sync.WaitGroup
	for url, check := range map[string]func([]byte) error{
		base + "/metrics":         checkPrometheus,
		base + "/debug/shape":     checkShape,
		base + "/debug/flightrec": checkFlightrec,
	} {
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			hammer(t, url, &stop, check)
		}()
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	hwg.Wait()
	wg.Wait()

	v := DurableDebugVars(d)
	counters, gauges, shape := v.Counters(), v.Gauges(), v.Shape()
	parts := shape["shards"].([]map[string]any)
	var ops, leaves uint64
	for i, tr := range d.Trees() {
		st := tr.Stats()
		if st.Ops == 0 {
			t.Fatalf("partition %d saw no operations", i)
		}
		if got := counters[fmt.Sprintf("shard%02d_ops", i)]; got != st.Ops {
			t.Errorf("shard%02d_ops = %d, partition tree's Ops = %d", i, got, st.Ops)
		}
		ops += st.Ops
		leaves += parts[i]["leaf_nodes"].(uint64)
	}
	if counters["ops"] != ops {
		t.Errorf("ops = %d, sum of the partition trees' Ops = %d", counters["ops"], ops)
	}
	if shape["leaf_nodes"].(uint64) != leaves {
		t.Errorf("shape leaf_nodes = %v, per-partition sum %d", shape["leaf_nodes"], leaves)
	}
	if gauges["shards"] != 2 || counters["wal_appends"] == 0 {
		t.Errorf("shards gauge %v, wal_appends %d", gauges["shards"], counters["wal_appends"])
	}
	one := DebugVars(d.Trees()[0])
	for k := range one.Counters() {
		if _, ok := counters[k]; !ok {
			t.Errorf("counter %s missing", k)
		}
	}
	for k := range one.Gauges() {
		if _, ok := gauges[k]; !ok {
			t.Errorf("gauge %s missing", k)
		}
	}
	for k := range one.Shape() {
		if _, ok := parts[0][k]; !ok {
			t.Errorf("partition shape key %s missing", k)
		}
	}
	for _, k := range []string{"height", "inner_nodes", "leaf_nodes", "pooled_slabs", "pooled_slab_bytes", "arena_bytes", "mapping_bytes"} {
		if _, ok := shape[k]; !ok {
			t.Errorf("summary shape key %s missing", k)
		}
	}
}
