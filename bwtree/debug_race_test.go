package bwtree

import (
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
	if _, ok := shape["leaf_nodes"]; !ok {
		return fmt.Errorf("missing leaf_nodes")
	}
	return nil
}

// TestDebugSurfacesUnderMutation hammers /metrics, /debug/shape, and
// /debug/flightrec while worker goroutines mutate a deep-traced tree.
// Meaningful under -race; the parse checks also catch torn text output.
func TestDebugSurfacesUnderMutation(t *testing.T) {
	opts := DefaultOptions()
	opts.LatencyHistograms = true
	opts.TraceRingSize = 1024
	opts.PhaseSampleEvery = 8
	opts.PhaseTraceBuffer = 1024
	opts.FlightRecorderSize = 128
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

// TestDurableDebugSurfacesUnderMutation is the durable variant: WAL
// gauges and checkpoint age serve concurrently with committing sessions
// and a checkpoint mid-run.
func TestDurableDebugSurfacesUnderMutation(t *testing.T) {
	topts := DefaultOptions()
	topts.LatencyHistograms = true
	topts.PhaseSampleEvery = 8
	topts.PhaseTraceBuffer = 1024
	topts.FlightRecorderSize = 128
	d, err := OpenDurable(t.TempDir(), DurableOptions{Tree: topts, SyncOnCommit: false})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()

	srv, err := ServeDurableDebug(d, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDurableDebug: %v", err)
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

	checkDurableMetrics := func(body []byte) error {
		if err := checkPrometheus(body); err != nil {
			return err
		}
		for _, want := range []string{"bwtree_wal_queue_records", "bwtree_checkpoint_age_seconds", "bwtree_epoch_lag"} {
			if !strings.Contains(string(body), want) {
				return fmt.Errorf("missing %s", want)
			}
		}
		return nil
	}

	var hwg sync.WaitGroup
	for url, check := range map[string]func([]byte) error{
		base + "/metrics":         checkDurableMetrics,
		base + "/debug/shape":     checkShape,
		base + "/debug/flightrec": checkFlightrec,
	} {
		hwg.Add(1)
		go func(url string, check func([]byte) error) {
			defer hwg.Done()
			hammer(t, url, &stop, check)
		}(url, check)
	}

	time.Sleep(200 * time.Millisecond)
	if _, err := d.Checkpoint(); err != nil {
		t.Errorf("Checkpoint: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	hwg.Wait()
	wg.Wait()

	if age := d.CheckpointAge(); age > time.Minute {
		t.Errorf("CheckpointAge = %v after fresh checkpoint", age)
	}
}
