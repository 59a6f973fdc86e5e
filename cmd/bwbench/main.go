// Command bwbench regenerates the tables and figures of "Building a
// Bw-Tree Takes More Than Just Buzz Words" (SIGMOD 2018).
//
// Usage:
//
//	bwbench [flags] <experiment> [<experiment> ...]
//	bwbench [flags] all
//	bwbench list
//
// Experiments are named after the paper: fig8 fig9 fig10 fig11 table2
// fig12a fig12b fig13 fig14 fig15 table3 fig16 fig17 fig18; latency and
// checked go beyond it.
//
// Flags scale the runs; defaults finish on a laptop in minutes. To
// approach paper scale use -keys 52000000 -ops 20000000 -threads 20.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
)

func main() {
	def := harness.DefaultScale()
	keys := flag.Int("keys", def.Keys, "load-phase key population per run")
	ops := flag.Int("ops", def.Ops, "run-phase operations per run")
	threads := flag.Int("threads", def.Threads, "worker goroutines for multi-threaded runs")
	seed := flag.Uint64("seed", def.Seed, "workload seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwbench [flags] <experiment>... | all | list\n\nexperiments:\n")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Brief)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	sc := harness.Scale{Keys: *keys, Ops: *ops, Threads: *threads, Seed: *seed}

	if args[0] == "list" {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Brief)
		}
		return
	}

	fmt.Printf("bwbench: keys=%d ops=%d threads=%d GOMAXPROCS=%d\n\n",
		sc.Keys, sc.Ops, sc.Threads, runtime.GOMAXPROCS(0))

	if args[0] == "all" {
		start := time.Now()
		harness.RunAll(os.Stdout, sc)
		fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))
		exitGate()
		return
	}

	byName := map[string]harness.Experiment{}
	for _, e := range harness.Experiments() {
		byName[e.Name] = e
	}
	for _, name := range args {
		e, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bwbench: unknown experiment %q (try 'bwbench list')\n", name)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", e.Name, e.Brief)
		e.Run(os.Stdout, sc)
		fmt.Printf("[%s in %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	exitGate()
}

// exitGate fails the process when the checked experiment recorded
// violations, so CI can rely on the exit code.
func exitGate() {
	if n := harness.GateFailures(); n > 0 {
		fmt.Fprintf(os.Stderr, "bwbench: %d gate failure(s)\n", n)
		os.Exit(1)
	}
}
