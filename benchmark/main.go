// Command benchmark measures the whole stack — tree, durable façade, shard
// router, transaction engine, wire protocol — on seven named workloads. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env describes the machine and the commit a result file was measured on.
type env struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	ScratchFS  string  `json:"scratch_fs"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	SegmentS   float64 `json:"segment_s"`
}

type resultFile struct {
	Env  env         `json:"env"`
	Runs []runResult `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "budget" {
		os.Exit(budgetMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ExitOnError)
	names := fl.String("workload", "all", "workload name, a comma-separated list, or all")
	seed := fl.Uint64("seed", 2018, "seed of every generated input")
	seconds := fl.Float64("seconds", 15, "length of the timed window")
	trace := fl.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = end-to-end metrics")
	clients := fl.Int("clients", min(2, runtime.NumCPU()), "closed-loop clients; also GOMAXPROCS")
	out := fl.String("out", "", "result file; runs are appended to it")
	dir := fl.String("dir", "", "scratch directory for logs (default: a fresh one under benchmark/out, removed on exit)")
	fl.Parse(args)

	if *clients < 1 || *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: %d clients on %d CPUs: clients and server would share cores\n", *clients, runtime.NumCPU())
		return 2
	}
	var specs []*workloadSpec
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			for i := range workloads {
				specs = append(specs, &workloads[i])
			}
		} else if ws := findWorkload(n); ws != nil {
			specs = append(specs, ws)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
	}
	runtime.GOMAXPROCS(*clients)

	outDir := "out"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		outDir = filepath.Join("benchmark", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := config{seed: *seed, clients: *clients, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace != 0, dir: *dir, outDir: outDir}
	if cfg.dir == "" {
		tmp, err := os.MkdirTemp(outDir, "scratch-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		cfg.dir = tmp
	}

	code := 0
	for _, ws := range specs {
		res, err := runWorkload(ws, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, newEnv(cfg), res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// reported lists the metrics a run prints, one line each, and the ones that
// go on the driver's line: BENCHMARK.json's end_to_end untraced, its
// per_layer (which holds the scoped metrics too) traced.
func reported(trace bool) (lines, driver []metricSpec) {
	if trace {
		all := append(append([]metricSpec(nil), scoped...), perLayer...)
		return all, all
	}
	return append(append([]metricSpec(nil), endToEnd...), scoped...), endToEnd
}

// printResult writes one line per metric, then the line the driver reads.
func printResult(res *runResult) {
	if res.SamplesMin > 0 {
		fmt.Printf("%s samples_per_segment_min %d count\n", res.Workload, res.SamplesMin)
	}
	lines, driver := reported(res.Trace)
	for _, s := range lines {
		if v, ok := res.Metrics[s.Name]; ok {
			fmt.Printf("%s %s %.6g %s\n", res.Workload, s.Name, v, s.Unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := map[string]value{}
	for _, s := range driver {
		last[s.Name] = value{res.Metrics[s.Name], s.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // marshalling numbers, strings and bools cannot fail
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": last,
	})
	fmt.Println(string(line))
}

func newEnv(cfg config) env {
	e := env{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", ScratchFS: fsName(cfg.dir),
		Seed: cfg.seed, WindowS: cfg.window.Seconds(), SegmentS: cfg.window.Seconds() / nSegments,
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		e.Kernel = sb.String()
	}
	return e
}

// fsName names the filesystem under dir, where the logs are fsynced.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// appendResult adds one run to the result file, creating it with e as its
// header. Runs of different commits, client counts or windows do not mix.
func appendResult(path string, e env, res *runResult) error {
	rf := resultFile{Env: e}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rf.Env.Commit != e.Commit || rf.Env.GoMaxProcs != e.GoMaxProcs || rf.Env.WindowS != e.WindowS {
			return fmt.Errorf("%s holds runs of commit %s, GOMAXPROCS %d, window %gs; this run is %s, %d, %gs",
				path, rf.Env.Commit, rf.Env.GoMaxProcs, rf.Env.WindowS, e.Commit, e.GoMaxProcs, e.WindowS)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	rf.Runs = append(rf.Runs, *res)
	if b, err = json.MarshalIndent(rf, "", " "); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
