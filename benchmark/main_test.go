package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestMixIsABijection(t *testing.T) {
	for _, x := range []uint64{0, 1, 2018, 1 << 40, math.MaxUint64} {
		if got := unmix64(mix64(x)); got != x {
			t.Errorf("unmix64(mix64(%d)) = %d", x, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json to the tables in spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, spec.go has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		d := bj.EndToEnd[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better || d.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, spec.go has %+v", i, d, s)
		}
	}
	_, traced := reported(true)
	if len(bj.PerLayer) != len(traced) {
		t.Fatalf("%d per-layer metrics declared, %d in spec.go", len(bj.PerLayer), len(traced))
	}
	for i, s := range traced {
		d := bj.PerLayer[i]
		if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
			t.Errorf("per-layer metric %d: declared %+v, spec.go has %+v", i, d, s)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy scale, untraced and traced.
func TestSmoke(t *testing.T) {
	clients := min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients))
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var want []runResult
	for i := range workloads {
		ws := &workloads[i]
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 7, clients: clients, window: 200 * time.Millisecond, trace: trace, dir: dir, outDir: dir, toy: true}
			res, err := runWorkload(ws, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", ws.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			lines, driver := reported(trace)
			allowed := map[string]bool{}
			for _, s := range lines {
				allowed[s.Name] = trace || s.on(ws.Name)
				if !nameRE.MatchString(s.Name) {
					t.Errorf("metric name %q is not a valid name", s.Name)
				}
			}
			for name, v := range res.Metrics {
				if !allowed[name] {
					t.Errorf("%s trace=%v: emits undeclared metric %s", ws.Name, trace, name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", ws.Name, trace, name, v)
				}
			}
			for name, ok := range allowed {
				if _, emitted := res.Metrics[name]; ok && !emitted {
					t.Errorf("%s trace=%v: does not emit %s", ws.Name, trace, name)
				}
			}
			if !trace {
				for _, s := range driver {
					if res.Metrics[s.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", ws.Name, s.Name, res.Metrics[s.Name])
					}
				}
			} else {
				checkTelescopes(t, ws, res.Metrics)
			}
			if err := appendResult(out, newEnv(cfg), res); err != nil {
				t.Fatal(err)
			}
			want = append(want, *res)
		}
	}

	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rf.Runs, want) {
		t.Error("the result file does not round-trip the runs written to it")
	}
	rows := compareFiles(rf, rf)
	if len(rows) == 0 {
		t.Error("compare of a file with itself has no rows")
	}
	for _, r := range rows {
		if r.Verdict == "worse" || r.A != r.B {
			t.Errorf("compare of a file with itself: %+v", r)
		}
	}
}

// checkTelescopes asserts that each budget's weighted self times add up to
// the outermost span, and that the span was in fact measured.
func checkTelescopes(t *testing.T, ws *workloadSpec, m map[string]float64) {
	t.Helper()
	for _, b := range ws.budgets {
		if m[b.metric] <= 0 {
			t.Errorf("%s: budget root %s = %v, want a measured span", ws.Name, b.metric, m[b.metric])
		}
		var sum float64
		for _, r := range b.rows(m, 1, nil) {
			sum += r.Weight * r.Value
		}
		if math.Abs(sum-m[b.metric]) > 1e-6*math.Max(1, m[b.metric]) {
			t.Errorf("%s: self times under %s add up to %v, the span is %v", ws.Name, b.metric, sum, m[b.metric])
		}
	}
}
