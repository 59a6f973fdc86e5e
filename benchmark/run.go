package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/wal"
)

// A run sets its workload up at least minSetups times, and a cheap set-up
// more often (until setupBudget is spent or maxSetups reached): setup_s is
// the median, and a 0.1 s set-up needs more repeats to be steady than a 2 s
// one.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// runResult is one run of one workload, as written to the result file.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Clients   int                `json:"clients"`
	WindowS   float64            `json:"window_s"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Segments holds the per-segment values behind ops_per_s, p50_us and
	// p99_us; SamplesMin is the fewest timed requests in one segment, and
	// 1% of it is how many samples lie beyond each p99.
	Segments   map[string][]float64 `json:"segments,omitempty"`
	SamplesMin int                  `json:"samples_min,omitempty"`
	// SpansSampled counts traced calls timed but not kept, where a phase
	// made more calls than a span buffer holds.
	SpansSampled int    `json:"spans_sampled_out,omitempty"`
	TraceFile    string `json:"trace_file,omitempty"`
}

// runWorkload sets the workload up, measures it and verifies it. A run that
// measured but failed verification returns its result with Correct false.
func runWorkload(ws *workloadSpec, cfg config) (*runResult, error) {
	keys := ws.Keys
	countReqs := ws.CountReqs
	if cfg.toy {
		keys, countReqs = 10_000, ws.CountReqs/100
	}
	res := &runResult{Workload: ws.Name, Seed: cfg.seed, Trace: cfg.trace, Clients: cfg.clients,
		WindowS: cfg.window.Seconds(), Metrics: map[string]float64{}}

	var in instance
	var times []float64
	var spent time.Duration
	for i := 0; i < minSetups || i < maxSetups && spent < setupBudget; i++ {
		if in != nil {
			in.close()
			runtime.GC()
		}
		t := time.Now()
		var err error
		if in, err = ws.setup(cfg, keys); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", ws.Name, err)
		}
		d := time.Since(t)
		spent += d
		times = append(times, d.Seconds())
	}
	defer in.close()

	phases, err := in.phases(cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ws.Name, err)
	}
	m := res.Metrics
	if cfg.trace {
		err = runTraced(ws, cfg, in, phases, countReqs, res)
	} else {
		m["setup_s"] = median(times)
		err = runUntraced(ws, cfg, in, phases[len(phases)-1], res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ws.Name, err)
	}

	own := map[string]float64{}
	bad, err := in.finish(own)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", ws.Name, err)
	}
	res.Failed += uint64(bad)
	res.Correct = res.Failed == 0
	own["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	for k, v := range own {
		m[k] = v
	}
	// A run reports its mode's declared metrics and nothing else: other
	// span names stay in the trace file. The traced run reports every
	// per-layer metric on every workload; a layer the workload does not
	// enter reads 0.
	lines, _ := reported(cfg.trace)
	keep := map[string]bool{}
	for _, s := range lines {
		if cfg.trace {
			m[s.Name] += 0
		}
		keep[s.Name] = cfg.trace || s.on(ws.Name)
	}
	for name := range m {
		if !keep[name] {
			delete(m, name)
		}
	}
	return res, nil
}

// open opens one client per worker on the phase's boundary.
func (p phase) open(clients int, recs []*spanBuf) (steps []stepFn, release func(), err error) {
	var rels []func()
	release = func() {
		for _, r := range rels {
			r()
		}
	}
	for w := 0; w < clients; w++ {
		var rec *spanBuf
		if recs != nil {
			rec = recs[w]
		}
		step, rel, err := p.client(w, rec)
		if err != nil {
			release()
			return nil, nil, fmt.Errorf("open %s client: %w", p.name, err)
		}
		steps, rels = append(steps, step), append(rels, rel)
	}
	return steps, release, nil
}

// timed drives the phase through one window.
func (p phase) timed(cfg config, win window, recs []*spanBuf) (summary, error) {
	steps, release, err := p.open(cfg.clients, recs)
	if err != nil {
		return summary{}, err
	}
	per := drive(steps, win, p.onSegment, recs)
	var tail time.Duration
	if p.tail != nil {
		tail = p.tail()
	}
	release()
	return summarize(per, win, tail), nil
}

func runUntraced(ws *workloadSpec, cfg config, in instance, p phase, res *runResult) error {
	sm, err := p.timed(cfg, newWindow(cfg.window, ws.Every), nil)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = sm.Ops, sm.Failed
	res.Segments = map[string][]float64{"ops_per_s": sm.Rates, "p50_us": sm.P50s, "p99_us": sm.P99s}
	res.SamplesMin = sm.SamplesMin
	m := res.Metrics
	m["ops_per_s"], m["p50_us"], m["p99_us"] = sm.Rate, sm.P50, sm.P99

	// The index's footprint with whatever the window left behind:
	// unconsolidated chains and garbage no epoch has reclaimed yet.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_bytes_per_key"] = float64(ms.HeapInuse) / float64(in.live())
	return nil
}

// runTraced walks the boundaries innermost first, each for an equal share
// of the window with every call a span, then reads the layers' counters
// across a fixed number of untraced requests at the end-to-end boundary.
func runTraced(ws *workloadSpec, cfg config, in instance, phases []phase, countReqs int, res *runResult) error {
	m := res.Metrics
	origin := time.Now()
	recs := make([]*spanBuf, cfg.clients)
	for w := range recs {
		recs[w] = &spanBuf{spans: make([]span, 0, spanCap), origin: origin, stride: 1}
	}
	win := newWindow(cfg.window/time.Duration(len(phases)), 1)
	var events []chromeEvent
	var e2e phase
	var tracedRate float64
	for _, p := range phases {
		for _, r := range recs {
			r.reset()
		}
		sm, err := p.timed(cfg, win, recs)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = res.Attempted+sm.Ops, res.Failed+sm.Failed
		p50s := spanP50s(recs)
		for name, v := range p50s {
			m[name+"_us"] = v
		}
		if p.report != nil {
			p.report(sm, p50s, m)
		}
		if p.e2e {
			e2e, tracedRate = p, sm.Rate
			m["trace.outer_p50_us"], m["p99_us"] = sm.P50, sm.P99
		}
		events = append(events, chromeEvents(p.name, p.inner, recs)...)
		for _, r := range recs {
			res.SpansSampled += r.calls - len(r.spans)
		}
	}
	for _, b := range ws.budgets {
		b.fillSelf(m)
	}

	steps, release, err := e2e.open(cfg.clients, nil)
	if err != nil {
		return err
	}
	var before, after snap
	before.read(in)
	stop := make(chan struct{})
	var lagMax, queueMax uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // polls the two gauges until stop closes
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				lag, queue := in.gauges()
				lagMax, queueMax = max(lagMax, lag), max(queueMax, queue)
			}
		}
	}()
	ops, failed, wall := runCount(steps, countReqs)
	close(stop)
	wg.Wait()
	release()
	after.read(in)
	res.Attempted, res.Failed = res.Attempted+ops, res.Failed+failed
	derive(&before, &after, float64(ops), in.structure(), in.live(), m)
	m["epoch.lag_max"], m["wal.queue_records_max"] = float64(lagMax), float64(queueMax)
	m["trace.overhead_ratio"] = tracedRate / (float64(ops) / wall.Seconds())

	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+ws.Name+".json")
	return writeChromeTrace(res.TraceFile, events)
}

// snap is every layer's cumulative counters at one instant. The instance
// fills the layers it has; read adds the runtime's.
type snap struct {
	core     bwtree.Stats
	shardOps []uint64
	wal      *wal.Stats
	txn      *txn.Stats
	srv      *bwproto.ServerStats
	net      *[5]uint64 // client reads, client writes, server reads, server writes, bytes
	mem      runtime.MemStats
	ru       syscall.Rusage
}

func (s *snap) read(in instance) {
	in.snapshot(s)
	runtime.ReadMemStats(&s.mem)
	syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // cannot fail for RUSAGE_SELF and a valid pointer
}

func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	for i := range after.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	after.Sum -= before.Sum
	return after
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tvSeconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// derive turns the counters' change across ops operations into the
// per-layer count metrics.
func derive(b, a *snap, ops float64, shape []bwtree.StructureStats, live int, m map[string]float64) {
	d := func(after, before uint64) float64 { return float64(after - before) }

	treeOps := d(a.core.Ops, b.core.Ops) / 1e3
	m["core.aborts_per_kop"] = ratio(d(a.core.Aborts, b.core.Aborts), treeOps)
	m["core.cas_failures_per_kop"] = ratio(d(a.core.CASFailures, b.core.CASFailures), treeOps)
	m["core.consolidations_per_kop"] = ratio(d(a.core.Consolidations, b.core.Consolidations), treeOps)
	m["core.splits_per_kop"] = ratio(d(a.core.Splits, b.core.Splits), treeOps)
	m["core.merges_per_kop"] = ratio(d(a.core.Merges, b.core.Merges), treeOps)
	m["core.pointer_chases_per_op"] = ratio(d(a.core.PointerChases, b.core.PointerChases), treeOps*1e3)
	retired := d(a.core.GC.Retired, b.core.GC.Retired)
	m["epoch.retired_per_kop"] = ratio(retired, treeOps)
	m["epoch.reclaim_ratio"] = ratio(d(a.core.GC.Reclaimed, b.core.GC.Reclaimed), retired)

	var arena int64
	for _, s := range shape {
		n := float64(len(shape))
		m["core.leaf_chain_mean"] += s.AvgLeafChainLen / n
		m["core.inner_chain_mean"] += s.AvgInnerChainLen / n
		m["core.gc_ptrs_per_leaf"] += s.GCPtrsPerLeaf / n
		m["core.height"] = max(m["core.height"], float64(s.Height))
		arena += s.ArenaBytes
	}
	m["core.arena_bytes_per_key"] = float64(arena) / float64(live)

	if len(a.shardOps) > 1 {
		var sum, top float64
		for i := range a.shardOps {
			o := d(a.shardOps[i], b.shardOps[i])
			sum, top = sum+o, max(top, o)
		}
		m["shard.skew"] = ratio(top, sum/float64(len(a.shardOps)))
	}
	if a.srv != nil {
		m["bwproto.frames_per_op"] = d(a.srv.Frames, b.srv.Frames) / ops
		m["bwproto.proto_errors"] = d(a.srv.ProtoErrors, b.srv.ProtoErrors)
	}
	if a.net != nil {
		for i, name := range []string{"client_reads_per_op", "client_writes_per_op", "server_reads_per_op", "server_writes_per_op", "bytes_per_op"} {
			m["bwproto."+name] = d(a.net[i], b.net[i]) / ops
		}
	}
	if a.txn != nil {
		commits := d(a.txn.Commits, b.txn.Commits)
		m["txn.conflicts_per_kcommit"] = ratio(d(a.txn.Conflicts, b.txn.Conflicts), commits/1e3)
		m["txn.readonly_share"] = ratio(d(a.txn.ReadOnly, b.txn.ReadOnly), commits)
		v := histDelta(a.txn.Validate, b.txn.Validate)
		m["txn.validate_p50_us"] = v.Quantile(0.50) / 1e3
	}
	if a.wal != nil {
		m["wal.syncs"] = d(a.wal.Syncs, b.wal.Syncs)
		m["wal.bytes_per_rec"] = ratio(d(a.wal.Bytes, b.wal.Bytes), d(a.wal.Appends, b.wal.Appends))
		fsync, batch := histDelta(a.wal.Fsync, b.wal.Fsync), histDelta(a.wal.Batch, b.wal.Batch)
		m["wal.fsync_p50_us"], m["wal.fsync_p99_us"] = fsync.Quantile(0.50)/1e3, fsync.Quantile(0.99)/1e3
		m["wal.batch_mean"] = batch.Mean()
	}

	m["rt.alloc_bytes_per_op"] = d(a.mem.TotalAlloc, b.mem.TotalAlloc) / ops
	m["rt.allocs_per_op"] = d(a.mem.Mallocs, b.mem.Mallocs) / ops
	m["rt.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["rt.gc_pause_ms"] = d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6
	user := tvSeconds(a.ru.Utime) - tvSeconds(b.ru.Utime)
	sys := tvSeconds(a.ru.Stime) - tvSeconds(b.ru.Stime)
	m["rt.cpu_s_per_mop"] = (user + sys) / (ops / 1e6)
	m["rt.sys_cpu_share"] = ratio(sys, user+sys)
}
