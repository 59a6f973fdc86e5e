package harness

import (
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/ycsb"
)

func tinyScale() Scale {
	return Scale{Keys: 2000, Ops: 4000, Threads: 2, Seed: 7}
}

func TestRunInsertOnly(t *testing.T) {
	res := Run(index.NewOpenBwTree, Config{
		Workload: ycsb.InsertOnly, KeyType: ycsb.MonoInt,
		Keys: 5000, Threads: 2, Seed: 1,
	})
	if res.RunMops <= 0 || res.LoadMops != res.RunMops {
		t.Fatalf("result %+v", res)
	}
	if res.Ops != 5000 {
		t.Fatalf("ops %d", res.Ops)
	}
}

func TestRunEachWorkloadEachIndex(t *testing.T) {
	for _, mk := range index.All() {
		for _, wl := range ycsb.AllWorkloads() {
			res := Run(mk, Config{
				Workload: wl, KeyType: ycsb.RandInt,
				Keys: 1000, Ops: 2000, Threads: 2, Seed: 3,
			})
			if res.RunMops <= 0 {
				t.Fatalf("%s/%v: zero throughput", res.Index, wl)
			}
		}
	}
}

func TestRunMeasuresMemory(t *testing.T) {
	res := Run(index.NewOpenBwTree, Config{
		Workload: ycsb.ReadUpdate, KeyType: ycsb.MonoInt,
		Keys: 20000, Ops: 1000, Threads: 1, Seed: 1, MeasureMemory: true,
	})
	if res.Bytes == 0 {
		t.Fatal("no memory measured for a 20k-key tree")
	}
}

func TestRunHCWorkload(t *testing.T) {
	res := Run(index.NewOpenBwTree, Config{
		Workload: ycsb.InsertOnly, KeyType: ycsb.MonoHC,
		Keys: 0, Ops: 5000, Threads: 4, Seed: 1,
	})
	if res.RunMops <= 0 || res.Ops != 5000 {
		t.Fatalf("result %+v", res)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "A", "B")
	tbl.AddFloats("row1", 1.5, 2.25)
	tbl.AddRow("row2", "x", "y")
	tbl.Note("note %d", 7)
	out := tbl.String()
	for _, want := range []string{"Title", "A", "B", "row1", "1.500", "2.250", "x", "y", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestExperimentsSmoke runs every experiment end-to-end at a tiny scale:
// the point is that each driver completes and produces a table.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	sc := tinyScale()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			var b strings.Builder
			e.Run(&b, sc)
			if !strings.Contains(b.String(), "===") {
				t.Fatalf("experiment %s produced no table:\n%s", e.Name, b.String())
			}
		})
	}
}

func TestPreloadAndRunPhase(t *testing.T) {
	idx, ks := Preload(index.NewBTree, ycsb.MonoInt, 3000, 2, 5)
	defer idx.Close()
	s := idx.NewSession()
	defer s.Release()
	if got := s.Lookup(ks.Keys[100], nil); len(got) != 1 {
		t.Fatalf("preloaded key missing: %v", got)
	}
	dur := RunPhase(idx, ks, ycsb.ReadOnly, 1000, 2, 9)
	if dur <= 0 {
		t.Fatal("zero duration")
	}
}

func TestFormatBytes(t *testing.T) {
	for _, c := range []struct {
		b    uint64
		want string
	}{
		{1 << 30, "1.00 GB"},
		{3 << 29, "1.50 GB"},
		{1<<30 - 1, "1024.0 MB"},
		{42 << 20, "42.0 MB"},
		{45 << 19, "22.5 MB"},
		{0, "0.0 MB"},
	} {
		if got := FormatBytes(c.b); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestRunMeasuresLatency(t *testing.T) {
	res := Run(index.NewOpenBwTree, Config{
		Workload: ycsb.ReadUpdate, KeyType: ycsb.RandInt,
		Keys: 2000, Ops: 4000, Threads: 2, Seed: 5, MeasureLatency: true,
	})
	if res.Lat == nil {
		t.Fatal("MeasureLatency set but Result.Lat is nil")
	}
	if got := res.Lat.Total(); got != 4000 {
		t.Fatalf("latency observations = %d, want 4000", got)
	}
	sum := res.Lat.Summary()
	if _, ok := sum["read"]; !ok {
		t.Fatalf("latency summary missing read class: %v", sum)
	}
	for class, q := range sum {
		if q["p99_us"] < q["p50_us"] {
			t.Fatalf("%s: p99 %v below p50 %v", class, q["p99_us"], q["p50_us"])
		}
	}

	// Latency off (default): no recorder allocated.
	res = Run(index.NewOpenBwTree, Config{
		Workload: ycsb.ReadOnly, KeyType: ycsb.RandInt,
		Keys: 1000, Ops: 1000, Threads: 1, Seed: 5,
	})
	if res.Lat != nil {
		t.Fatal("Result.Lat non-nil without MeasureLatency")
	}
}
