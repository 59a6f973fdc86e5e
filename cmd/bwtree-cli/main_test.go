package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/bwtree"
)

// TestRunTrace runs the trace subcommand on a small load: the output
// must parse as Chrome trace-event JSON, sample every op class the
// workload runs, and carry the CLI's one session as its one tid.
func TestRunTrace(t *testing.T) {
	opts := bwtree.DefaultOptions()
	opts.Trace = true
	tr := bwtree.New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	if s.Probe() == nil {
		t.Skip("-tags notrace: the build samples no phase traces")
	}
	const load = 400
	preload(s, load)
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := runTrace(tr, s, load, out); err != nil {
		t.Fatalf("runTrace: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not JSON: %v", err)
	}
	classes, tids := map[string]int{}, map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == "op" {
			classes[e.Name]++
			tids[e.TID] = true
		}
	}
	for _, c := range []string{"insert", "update", "read", "delete", "scan"} {
		if classes[c] == 0 {
			t.Errorf("no %s op sampled; sampled %v", c, classes)
		}
	}
	if len(tids) != 1 {
		t.Errorf("ops on %d tids, want the one session's", len(tids))
	}
}

// TestStatsAndShapeJSON checks that stats and shape with -json print
// one JSON object each, with the fields scripts read.
func TestStatsAndShapeJSON(t *testing.T) {
	tr := bwtree.New(bwtree.DefaultOptions())
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()
	preload(s, 1000)
	jsonOut = true
	defer func() { jsonOut = false }()
	for name, print := range map[string]func(*bwtree.Tree){"stats": printStats, "shape": printShape} {
		var obj map[string]any
		if err := json.Unmarshal(stdout(t, func() { print(tr) }), &obj); err != nil {
			t.Fatalf("%s -json: %v", name, err)
		}
		field := map[string]string{"stats": "ops", "shape": "height"}[name]
		if v, ok := obj[field].(float64); !ok || v <= 0 {
			t.Errorf("%s -json: %s = %v, want a positive number", name, field, obj[field])
		}
	}
}

// stdout returns what fn prints to os.Stdout.
func stdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return <-done
}
