package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so a
// spread printed here is the spread the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := i*(m+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// series gathers, per workload and metric, the untraced runs' values and
// the per-segment values behind them.
type series struct{ runs, segments []float64 }

func gather(rf *resultFile) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, r := range rf.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*series{}
		}
		for name, v := range r.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = &series{}
				out[r.Workload][name] = s
			}
			s.runs = append(s.runs, v)
			s.segments = append(s.segments, r.Segments[name]...)
		}
	}
	return out
}

// spread is the distance between the quartiles of a file's own values as a
// share of their median: of its runs when there are at least four, else of
// the segments inside its runs; 0 when neither is to be had.
func (s *series) spread() float64 {
	v := s.runs
	if len(v) < 4 {
		v = s.segments
	}
	med := median(v)
	if len(v) < 4 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

// verdict compares medians a (the base) and b under spec's bound.
func verdict(spec metricSpec, a, b, spreadA float64) string {
	limit := max(spec.Bound*a, spec.Abs)
	worse := b - a
	if spec.Better == "higher" {
		worse = a - b
	}
	switch {
	case worse > limit:
		return "worse"
	case spreadA*a > limit:
		return "unresolved"
	}
	return "ok"
}

// compareRow is one workload and end-to-end metric of two result files.
type compareRow struct {
	Workload string
	Spec     metricSpec
	A, B     float64 // medians over each file's untraced runs
	SpreadA  float64
	Verdict  string
}

func compareFiles(fa, fb *resultFile) []compareRow {
	a, b := gather(fa), gather(fb)
	specs, _ := reported(false)
	var rows []compareRow
	for _, ws := range workloads {
		for _, spec := range specs {
			sa, sb := a[ws.Name][spec.Name], b[ws.Name][spec.Name]
			if sa == nil || sb == nil {
				continue
			}
			r := compareRow{Workload: ws.Name, Spec: spec, A: median(sa.runs), B: median(sb.runs), SpreadA: sa.spread()}
			r.Verdict = verdict(spec, r.A, r.B, r.SpreadA)
			rows = append(rows, r)
		}
	}
	return rows
}

// compareMain prints one row per workload and end-to-end metric of two
// result files and returns 1 if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	fa, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fb, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB/A\tspread of A\tbound\tverdict")
	code := 0
	for _, r := range compareFiles(fa, fb) {
		if r.Verdict == "worse" {
			code = 1
		}
		bound := fmt.Sprintf("%.0f%%", 100*r.Spec.Bound)
		if r.Spec.Abs > 0 {
			bound += fmt.Sprintf(" or %g %s", r.Spec.Abs, r.Spec.Unit)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of A\t%.1f%%\t%s\t%s\n",
			r.Workload, r.Spec.Name, r.Spec.Unit, r.A, r.B, ratio(r.B, r.A), 100*r.SpreadA, bound, r.Verdict)
	}
	tw.Flush()
	return code
}

// budgetMain renders, for every traced run in a result file, the workload's
// latency budget as Markdown: each layer's self time and its share of the
// outermost span, then the layer counters that are not zero.
func budgetMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark budget result.json")
		return 2
	}
	rf, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, run := range rf.Runs {
		ws := findWorkload(run.Workload)
		if !run.Trace || ws == nil {
			continue
		}
		fmt.Printf("## %s (seed %d, %d clients)\n", run.Workload, run.Seed, run.Clients)
		inBudget := map[string]bool{}
		for _, b := range ws.budgets {
			total := run.Metrics[b.metric]
			fmt.Printf("\n`%s` = %.3f us\n\n| layer self time | times paid | us | share |\n|---|---|---|---|\n", b.metric, total)
			for _, r := range b.rows(run.Metrics, 1, nil) {
				inBudget[r.Metric] = true
				fmt.Printf("| `%s` | %g | %.3f | %.1f%% |\n", r.Metric, r.Weight, r.Value, 100*ratio(r.Weight*r.Value, total))
			}
		}
		fmt.Print("\n| other per-layer metric | value | unit |\n|---|---|---|\n")
		for _, s := range perLayer {
			if v := run.Metrics[s.Name]; v != 0 && !inBudget[s.Name] {
				fmt.Printf("| `%s` | %.6g | %s |\n", s.Name, v, s.Unit)
			}
		}
		fmt.Println()
	}
	return 0
}
