// Package harness drives the paper's experiments: it fans workloads out
// over worker goroutines, measures throughput and memory, and renders the
// text tables and series that mirror every figure and table of the
// evaluation (§5, §6).
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// Config describes one benchmark run.
type Config struct {
	Workload ycsb.Workload
	KeyType  ycsb.KeyType
	// Keys is the load-phase population size.
	Keys int
	// Ops is the total run-phase operation count (ignored for
	// Insert-only, whose op count equals Keys).
	Ops int
	// Threads is the worker goroutine count.
	Threads int
	// Seed makes runs reproducible.
	Seed uint64
	// MeasureMemory enables live-heap measurement (forces GC twice).
	MeasureMemory bool
	// MeasureLatency records per-operation latency histograms during the
	// run phase into Result.Lat. Independent of the index's own
	// histograms: the harness times each call at the session boundary, so
	// it works for every index, not just the Bw-Tree.
	MeasureLatency bool
}

// Result is one run's measurements.
type Result struct {
	Index    string
	Workload ycsb.Workload
	KeyType  ycsb.KeyType
	Threads  int

	// LoadMops is the Insert-only (population) throughput in Mops/s.
	LoadMops float64
	// RunMops is the run-phase throughput in Mops/s. For Insert-only
	// configs it equals LoadMops.
	RunMops float64
	// Bytes is the live-heap delta attributable to the index, when
	// MeasureMemory is set.
	Bytes uint64
	// Ops is the number of operations the run phase completed.
	Ops int
	// Lat holds run-phase latency histograms when Config.MeasureLatency
	// was set; nil otherwise.
	Lat *obs.LatencySnapshot
}

// Run executes one benchmark: build the index with mk, load the
// population (timed), then run the workload mix (timed).
func Run(mk func() index.Index, cfg Config) Result {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	var before runtime.MemStats
	if cfg.MeasureMemory {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	idx := mk()
	defer idx.Close()

	res := Result{
		Index:    idx.Name(),
		Workload: cfg.Workload,
		KeyType:  cfg.KeyType,
		Threads:  cfg.Threads,
	}

	ks := ycsb.NewKeySet(cfg.KeyType, cfg.Keys)

	// Load phase: the whole population via Insert-only streams.
	loadOps := cfg.Keys
	if cfg.Workload == ycsb.InsertOnly && cfg.KeyType == ycsb.MonoHC {
		// HC keys are generated on the fly; load nothing.
		loadOps = 0
	}
	var lat *obs.LatencySnapshot
	if cfg.MeasureLatency {
		lat = &obs.LatencySnapshot{}
	}
	if loadOps > 0 {
		// For Insert-only configs the load phase is the measured run, so
		// latency collection (when requested) must cover it; for mixed
		// workloads the load is just setup and stays uninstrumented.
		loadLat := lat
		if cfg.Workload != ycsb.InsertOnly {
			loadLat = nil
		}
		dur := RunPhaseLat(idx, ks, ycsb.InsertOnly, loadOps, cfg.Threads, phaseSeed(cfg.Seed, 0), loadLat)
		res.LoadMops = mops(loadOps, dur)
	}
	if cfg.Workload == ycsb.InsertOnly {
		if loadOps == 0 {
			// Mono-HC Insert-only: the run phase does the inserting.
			dur := RunPhaseLat(idx, ks, ycsb.InsertOnly, cfg.Ops, cfg.Threads, phaseSeed(cfg.Seed, 0), lat)
			res.RunMops = mops(cfg.Ops, dur)
			res.Ops = cfg.Ops
		} else {
			res.RunMops = res.LoadMops
			res.Ops = loadOps
		}
	} else {
		dur := RunPhaseLat(idx, ks, cfg.Workload, cfg.Ops, cfg.Threads, phaseSeed(cfg.Seed, 1), lat)
		res.RunMops = mops(cfg.Ops, dur)
		res.Ops = cfg.Ops
	}
	res.Lat = lat

	if cfg.MeasureMemory {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			res.Bytes = after.HeapAlloc - before.HeapAlloc
		}
	}
	return res
}

// phaseSeed derives an independent RNG stream for phase (or worker)
// number p of a run seeded with seed, via the SplitMix64 finalizer. The
// old derivation — run phase = Seed+1, worker streams = seed + worker ×
// 0x9E37 — made adjacent user seeds overlap: seed S's run phase replayed
// seed S+1's load phase, and nearby (seed, worker) pairs collided.
// Hashing (seed, p) through a full-avalanche bijection decorrelates every
// pair while keeping runs reproducible from Config.Seed alone.
func phaseSeed(seed, p uint64) uint64 {
	x := seed + (p+1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func mops(ops int, dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(ops) / dur.Seconds() / 1e6
}

// RunPhase executes ops operations of workload w across threads workers
// and returns the wall-clock duration.
func RunPhase(idx index.Index, ks *ycsb.KeySet, w ycsb.Workload, ops, threads int, seed uint64) time.Duration {
	return RunPhaseLat(idx, ks, w, ops, threads, seed, nil)
}

// RunPhaseLat is RunPhase with optional latency collection: when lat is
// non-nil each worker records every operation's duration into a private
// recorder, merged into lat after the barrier.
func RunPhaseLat(idx index.Index, ks *ycsb.KeySet, w ycsb.Workload, ops, threads int, seed uint64, lat *obs.LatencySnapshot) time.Duration {
	perWorker := ops / threads
	extra := ops % threads
	recs := make([]*obs.Recorder, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		n := perWorker
		if t < extra {
			n++
		}
		wg.Add(1)
		go func(worker, n int) {
			defer wg.Done()
			s := idx.NewSession()
			defer s.Release()
			stream := ycsb.NewStream(w, ks, worker, phaseSeed(seed, uint64(worker)))
			var rec *obs.Recorder
			if lat != nil {
				rec = &obs.Recorder{}
				recs[worker] = rec
			}
			var out []uint64
			if rec == nil {
				for i := 0; i < n; i++ {
					op := stream.Next()
					switch op.Kind {
					case ycsb.OpRead:
						out = s.Lookup(op.Key, out[:0])
					case ycsb.OpUpdate:
						s.Update(op.Key, op.Value)
					case ycsb.OpInsert:
						s.Insert(op.Key, op.Value)
					case ycsb.OpScan:
						s.Scan(op.Key, op.ScanLen, visitNop)
					}
				}
				return
			}
			for i := 0; i < n; i++ {
				op := stream.Next()
				t0 := obs.Now()
				var class obs.OpClass
				switch op.Kind {
				case ycsb.OpRead:
					out = s.Lookup(op.Key, out[:0])
					class = obs.OpRead
				case ycsb.OpUpdate:
					s.Update(op.Key, op.Value)
					class = obs.OpUpdate
				case ycsb.OpInsert:
					s.Insert(op.Key, op.Value)
					class = obs.OpInsert
				case ycsb.OpScan:
					s.Scan(op.Key, op.ScanLen, visitNop)
					class = obs.OpScan
				}
				rec.Record(class, obs.Now()-t0)
			}
		}(t, n)
	}
	wg.Wait()
	dur := time.Since(start)
	if lat != nil {
		for _, rec := range recs {
			if rec != nil {
				rec.AddTo(lat)
			}
		}
	}
	return dur
}

func visitNop(k []byte, v uint64) bool { return true }

// Preload builds an index and loads the population, returning the loaded
// index for experiments that need custom measurement phases.
func Preload(mk func() index.Index, kt ycsb.KeyType, keys, threads int, seed uint64) (index.Index, *ycsb.KeySet) {
	idx := mk()
	ks := ycsb.NewKeySet(kt, keys)
	RunPhase(idx, ks, ycsb.InsertOnly, keys, threads, seed)
	return idx, ks
}

// FormatBytes renders a byte count as GB with two decimals (the unit of
// Fig. 15) from 1 GB up, and as MB with one decimal below that, where two
// decimals of a GB would tie indexes that differ by tens of percent.
func FormatBytes(b uint64) string {
	if b < 1<<30 {
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	}
	return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
}
