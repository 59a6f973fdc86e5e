// Command ycsbreplay replays a trace produced by ycsbgen against one of
// the six indexes and reports throughput:
//
//	ycsbgen -workload a -n 1000000 | ycsbreplay -index openbw -threads 4
//
// Lines are distributed round-robin across worker goroutines; see
// ycsbgen's documentation for the trace format.
//
// With -gen, the trace is synthesized in-process from the same
// internal/ycsb generators instead of read from stdin — no pipe, no hex
// encode/decode, and the population backing a mixed workload is loaded
// into the index untimed before the replay starts (a piped trace leaves
// loading to the operator, so its reads measure misses on a fresh index):
//
//	ycsbreplay -gen e -dist uniform -gen-n 1000000 -index openbw -threads 4
//
// With -batch N, INSERT and READ lines are accumulated per worker and
// flushed through the index's batch entry points in windows of N (the
// Bw-Tree runs its amortized-epoch batch path; other indexes fall back
// to a loop adapter). UPDATE and SCAN lines replay single-op.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bwtree"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ycsb"
)

func indexByName(name string) (index.Index, error) {
	switch strings.ToLower(name) {
	case "bw", "bwtree":
		return index.NewBaselineBwTree(), nil
	case "openbw", "openbwtree":
		return index.NewOpenBwTree(), nil
	case "skiplist":
		return index.NewSkipList(), nil
	case "masstree":
		return index.NewMasstree(), nil
	case "btree", "b+tree":
		return index.NewBTree(), nil
	case "art":
		return index.NewART(), nil
	}
	return nil, fmt.Errorf("unknown index %q (bw, openbw, skiplist, masstree, btree, art)", name)
}

// indexByNameObs is indexByName with the Bw-Tree variants rebuilt with
// latency histograms, SMO tracing, phase sampling, and the flight
// recorder enabled, for -debug-addr and -trace-out runs.
func indexByNameObs(name string, phaseSample int) (index.Index, error) {
	var opts core.Options
	var report string
	switch strings.ToLower(name) {
	case "bw", "bwtree":
		opts, report = core.BaselineOptions(), "BwTree"
	case "openbw", "openbwtree":
		opts, report = core.DefaultOptions(), "OpenBwTree"
	default:
		return indexByName(name)
	}
	opts.LatencyHistograms = true
	opts.TraceRingSize = 1024
	opts.PhaseSampleEvery = phaseSample
	opts.PhaseTraceBuffer = 4096
	opts.FlightRecorderSize = 512
	opts.FlightLatencyThreshold = 250 * time.Millisecond
	return index.NewBwTreeWith(report, opts), nil
}

type op struct {
	kind  byte // 'I', 'R', 'U', 'S'
	key   []byte
	value uint64
	n     int
}

func main() {
	idxName := flag.String("index", "openbw", "index to replay against")
	threads := flag.Int("threads", 1, "worker goroutines")
	batch := flag.Int("batch", 0, "flush INSERT/READ lines through the batch API in windows of this size (0 = single-op)")
	debugAddr := flag.String("debug-addr", "", "serve the debug surface on this address: /debug/stats, /metrics, /debug lists the rest (Bw-Tree indexes only)")
	traceOut := flag.String("trace-out", "", "write sampled per-op phase traces as Chrome trace-event JSON to this file (Bw-Tree indexes only)")
	phaseSample := flag.Int("phase-sample", 64, "with -trace-out or -debug-addr: sample one op in N for phase tracing")
	gen := flag.String("gen", "", "synthesize the trace in-process instead of reading stdin: workload insert, a, b, c, or e")
	genKeys := flag.String("gen-keytype", "email", "key type for -gen: mono, rand, email, path")
	genN := flag.Int("gen-n", 1_000_000, "operations to synthesize with -gen")
	genPop := flag.Int("gen-population", 1_000_000, "loaded key population backing a -gen mixed workload")
	genSeed := flag.Uint64("gen-seed", 2018, "generator seed for -gen")
	distName := flag.String("dist", "zipfian", "request distribution for -gen: zipfian or uniform")
	flag.Parse()

	var idx index.Index
	var err error
	if *debugAddr != "" || *traceOut != "" {
		idx, err = indexByNameObs(*idxName, *phaseSample)
	} else {
		idx, err = indexByName(*idxName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbreplay:", err)
		os.Exit(2)
	}
	defer idx.Close()

	if *debugAddr != "" {
		bw, ok := idx.(index.BwBacked)
		if !ok {
			fmt.Fprintf(os.Stderr, "ycsbreplay: -debug-addr requires a Bw-Tree index, not %q\n", idx.Name())
			os.Exit(2)
		}
		srv, err := bwtree.ServeDebug(bw.Tree(), *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ycsbreplay: debug server:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug stats at http://%s/debug/stats\n", srv.Addr())
	}

	var ops []op
	if *gen != "" {
		ops, err = genTrace(idx, *gen, *genKeys, *distName, *genN, *genPop, *genSeed)
	} else {
		ops, err = parseTrace(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsbreplay:", err)
		os.Exit(1)
	}
	if len(ops) == 0 {
		fmt.Fprintln(os.Stderr, "ycsbreplay: empty trace")
		os.Exit(1)
	}

	nw := *threads
	if nw < 1 {
		nw = 1
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := idx.NewSession()
			defer s.Release()
			bs := index.AsBatch(s)
			var out []uint64
			var ikeys [][]byte
			var ivals []uint64
			var rkeys [][]byte
			var okBuf []bool
			flush := func() {
				if len(ikeys) > 0 {
					okBuf = bs.InsertBatch(ikeys, ivals, okBuf)
					ikeys, ivals = ikeys[:0], ivals[:0]
				}
				if len(rkeys) > 0 {
					bs.LookupBatch(rkeys, func(int, []uint64) {})
					rkeys = rkeys[:0]
				}
			}
			for i := w; i < len(ops); i += nw {
				o := ops[i]
				switch o.kind {
				case 'I':
					if *batch > 1 {
						ikeys = append(ikeys, o.key)
						ivals = append(ivals, o.value)
					} else {
						s.Insert(o.key, o.value)
					}
				case 'R':
					if *batch > 1 {
						rkeys = append(rkeys, o.key)
					} else {
						out = s.Lookup(o.key, out[:0])
					}
				case 'U':
					s.Update(o.key, o.value)
				case 'S':
					s.Scan(o.key, o.n, func(k []byte, v uint64) bool { return true })
				}
				if *batch > 1 && len(ikeys)+len(rkeys) >= *batch {
					flush()
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	dur := time.Since(start)
	fmt.Printf("%s: %d ops in %v (%.3f Mops/s, %d threads)\n",
		idx.Name(), len(ops), dur.Round(time.Millisecond),
		float64(len(ops))/dur.Seconds()/1e6, nw)
	if bw, ok := idx.(index.BwBacked); ok {
		if lat := bw.Tree().Latencies(); lat != nil {
			for class, m := range lat.Summary() {
				fmt.Printf("  %-7s n=%-10.0f p50=%7.2fus p90=%7.2fus p99=%7.2fus p99.9=%7.2fus\n",
					class, m["count"], m["p50_us"], m["p90_us"], m["p99_us"], m["p999_us"])
			}
		}
		if *traceOut != "" {
			traces := bw.Tree().PhaseTraces()
			f, err := os.Create(*traceOut)
			if err == nil {
				err = bwtree.WriteChromeTrace(f, traces)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ycsbreplay: trace-out:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %d sampled op traces to %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(traces), *traceOut)
		}
	}
}

// genTrace synthesizes a trace in-process with the internal/ycsb
// generators (the exact ops ycsbgen would have piped, plus an explicit
// request distribution), preloading the population into idx untimed when
// the workload is a mixed one so the replay probes real data.
func genTrace(idx index.Index, workload, keyType, distName string, n, population int, seed uint64) ([]op, error) {
	wl, err := ycsb.ParseWorkload(workload)
	if err != nil {
		return nil, err
	}
	kt, err := ycsb.ParseKeyType(keyType)
	if err != nil {
		return nil, err
	}
	dist, err := ycsb.ParseDist(distName)
	if err != nil {
		return nil, err
	}
	pop := population
	if wl == ycsb.InsertOnly {
		pop = n
	}
	ks := ycsb.NewKeySet(kt, pop)
	if wl != ycsb.InsertOnly {
		s := idx.NewSession()
		for i, k := range ks.Keys {
			s.Insert(k, uint64(i))
		}
		s.Release()
		fmt.Fprintf(os.Stderr, "preloaded %d %s keys (untimed)\n", len(ks.Keys), kt)
	}
	stream := ycsb.NewStreamDist(wl, ks, 0, seed, dist)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := stream.Next()
		switch o.Kind {
		case ycsb.OpInsert:
			ops = append(ops, op{kind: 'I', key: o.Key, value: o.Value})
		case ycsb.OpRead:
			ops = append(ops, op{kind: 'R', key: o.Key})
		case ycsb.OpUpdate:
			ops = append(ops, op{kind: 'U', key: o.Key, value: o.Value})
		case ycsb.OpScan:
			ops = append(ops, op{kind: 'S', key: o.Key, n: o.ScanLen})
		}
	}
	return ops, nil
}

func parseTrace(f *os.File) ([]op, error) {
	var ops []op
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		key, err := hex.DecodeString(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad key: %v", line, err)
		}
		o := op{key: key}
		switch fields[0] {
		case "INSERT", "UPDATE":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: arity", line)
			}
			v, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value: %v", line, err)
			}
			o.value = v
			o.kind = fields[0][0]
		case "READ":
			o.kind = 'R'
		case "SCAN":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: arity", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad scan length: %v", line, err)
			}
			o.n = n
			o.kind = 'S'
		default:
			return nil, fmt.Errorf("line %d: unknown op %q", line, fields[0])
		}
		ops = append(ops, o)
	}
	return ops, sc.Err()
}
