// Command bwstress soaks the OpenBw-Tree under a concurrent mixed
// workload with periodic invariant validation — the long-running
// confidence test for the lock-free machinery:
//
//	bwstress -duration 60s -workers 8 -keyspace 100000
//
// Workers run a random insert/delete/update/lookup/scan mix over a shared
// key space while tracking, per worker, a disjoint slice of keys whose
// state they own exclusively and can therefore verify exactly (the mirror
// in mirror.go). After the workers stop, the whole tree is swept against
// the union of the mirrors, so every mode ends with an exact
// tree-vs-expectation comparison. Any inconsistency exits non-zero.
//
// With -batch N, inserts, deletes, and lookups are queued and flushed
// through the amortized-epoch batch API (InsertBatch/DeleteBatch/
// LookupBatch) in windows of N, with the same mirror verification;
// updates and scans keep interleaving single-op.
//
// With -check, every operation is additionally recorded through the
// history checker (internal/histcheck) and the merged history is verified
// against sequential semantics at exit — catching cross-worker anomalies
// the per-worker mirrors cannot see. Recording is memory-bound, so -check
// caps the run at -check-ops total operations instead of running for the
// full -duration.
//
// With -wal DIR, the tree runs under the durability layer (bwtree.Durable,
// SyncOnCommit) and the soak becomes a crash test: at a random moment the
// log "loses power" (Durable.Crash), in-flight commits fail, the directory
// is optionally damaged with a torn tail, and the tree is recovered with
// OpenDurable. Every acknowledged operation must be present after
// recovery; each worker's single in-flight operation may have either
// happened or not, but nothing in between.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/histcheck"
	"repro/internal/index"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// session is the raw operation surface in the in-memory modes; both
// *bwtree.Session and the checker's recording session satisfy it,
// including the batch entry points.
type session interface {
	Insert(key []byte, value uint64) bool
	Delete(key []byte, value uint64) bool
	Update(key []byte, value uint64) bool
	Lookup(key []byte, out []uint64) []uint64
	Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int
	InsertBatch(keys [][]byte, vals []uint64, ok []bool) []bool
	DeleteBatch(keys [][]byte, vals []uint64, ok []bool) []bool
	LookupBatch(keys [][]byte, visit func(i int, vals []uint64))
	Release()
}

// stressSession is the surface the worker loop drives: the in-memory
// session adapted with nil errors, or a *bwtree.DurableSession whose
// errors signal the simulated crash.
type stressSession interface {
	Insert(key []byte, value uint64) (bool, error)
	Delete(key []byte, value uint64) (bool, error)
	Update(key []byte, value uint64) (bool, error)
	Lookup(key []byte, out []uint64) []uint64
	Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int
	Release()
}

// plainSession adapts the in-memory session to stressSession.
type plainSession struct{ s session }

func (p plainSession) Insert(k []byte, v uint64) (bool, error) { return p.s.Insert(k, v), nil }
func (p plainSession) Delete(k []byte, v uint64) (bool, error) { return p.s.Delete(k, v), nil }
func (p plainSession) Update(k []byte, v uint64) (bool, error) { return p.s.Update(k, v), nil }
func (p plainSession) Lookup(k []byte, out []uint64) []uint64  { return p.s.Lookup(k, out) }
func (p plainSession) Scan(start []byte, n int, visit func([]byte, uint64) bool) int {
	return p.s.Scan(start, n, visit)
}
func (p plainSession) Release() { p.s.Release() }

func key64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func main() {
	duration := flag.Duration("duration", 30*time.Second, "soak duration")
	workers := flag.Int("workers", 8, "worker goroutines")
	keyspace := flag.Uint64("keyspace", 100000, "shared keys per worker slice")
	leafSize := flag.Int("leaf", 32, "leaf node size (small sizes maximize SMO churn)")
	debugAddr := flag.String("debug-addr", "", "serve the debug surface on this address: /debug/stats, /metrics, /debug lists the rest (enables latency histograms and SMO tracing)")
	batch := flag.Int("batch", 0, "route inserts/deletes/lookups through the batch API in windows of this size (0 = single-op)")
	check := flag.Bool("check", false, "record every op and verify the merged history for linearizability at exit")
	checkOps := flag.Uint64("check-ops", 400_000, "total operation budget with -check (recorded histories must fit in memory)")
	serverAddr := flag.String("server", "", "drive a running bwserver at this address over the wire instead of an in-process tree")
	walDir := flag.String("wal", "", "run under the durability layer in this directory and crash/recover mid-soak")
	seed := flag.Int64("seed", 0, "crash-timing seed for -wal (0 = derive from time)")
	traceOut := flag.String("trace-out", "", "write sampled phase traces as Chrome trace-event JSON to this file at exit (enables deep tracing)")
	sampleEvery := flag.Int("phase-sample", 64, "with deep tracing on, phase-sample every Nth operation per worker")
	stallSecs := flag.Int("stall-secs", 10, "autopsy and fail if the global op counter plateaus for this many seconds (0 = off)")
	txnMode := flag.Bool("txn", false, "run the bank-transfer transaction soak instead of the mixed workload (see txn.go)")
	txnAccounts := flag.Uint64("txn-accounts", 64, "txn mode: number of bank accounts")
	txnInitial := flag.Uint64("txn-initial", 1000, "txn mode: starting balance per account")
	txnShards := flag.Int("shards", 0, "txn mode: shard count of the in-process store and -spawn (0/1 = one shard, in memory or under -wal)")
	txnKills := flag.Int("kills", 1, "txn mode: crash/recover (-wal) or SIGKILL/restart (-spawn) cycles during the soak")
	txnSpawn := flag.String("spawn", "", "txn mode: path to a bwserver binary; spawn it on -wal, drive it over sockets, and kill/restart it mid-soak")
	workload := flag.String("workload", "", "run a named YCSB mix (a|b|c|e|insert) over Email keys instead of the random soak (see ycsb.go)")
	distName := flag.String("dist", "zipfian", "request distribution for -workload: zipfian or uniform")
	workloadKeys := flag.Int("workload-keys", 200_000, "population size for -workload")
	flag.Parse()

	if *txnMode {
		runTxnSoak(txnCfg{
			duration: *duration,
			workers:  *workers,
			accounts: *txnAccounts,
			initial:  *txnInitial,
			server:   *serverAddr,
			spawn:    *txnSpawn,
			walDir:   *walDir,
			shards:   *txnShards,
			kills:    *txnKills,
			check:    *check,
			seed:     *seed,
		})
		return
	}
	if *txnSpawn != "" {
		log.Fatal("-spawn requires -txn")
	}

	if *walDir != "" && (*batch > 1 || *check) {
		log.Fatal("-wal cannot be combined with -batch or -check")
	}
	if *serverAddr != "" && (*walDir != "" || *debugAddr != "" || *traceOut != "") {
		// Over the wire, durability, the debug surface, and phase traces
		// belong to the server process (bwserver flags), not the client rig.
		log.Fatal("-server cannot be combined with -wal, -debug-addr, or -trace-out")
	}

	opts := bwtree.DefaultOptions()
	opts.LeafNodeSize = *leafSize
	opts.InnerNodeSize = *leafSize / 2
	opts.LeafChainLength = 8
	opts.InnerChainLength = 2
	opts.LeafMergeSize = *leafSize / 4
	opts.InnerMergeSize = *leafSize / 8
	if *debugAddr != "" {
		opts.LatencyHistograms = true
		opts.TraceRingSize = 1024
	}
	if *debugAddr != "" || *traceOut != "" {
		// Deep-path tracing: sampled phase traces (chain walks, CaS
		// retries, fsync waits in wal mode) plus the always-on flight
		// recorder behind /debug/flightrec and the anomaly dumps.
		opts.PhaseSampleEvery = *sampleEvery
		opts.PhaseTraceBuffer = 4096
		opts.FlightRecorderSize = 512
		opts.FlightLatencyThreshold = 250 * time.Millisecond
	}

	if *workload != "" {
		wk, err := ycsb.ParseWorkload(*workload)
		if err != nil {
			log.Fatal(err)
		}
		dist, err := ycsb.ParseDist(*distName)
		if err != nil {
			log.Fatal(err)
		}
		if *walDir != "" || *serverAddr != "" || *batch > 1 || *check {
			log.Fatal("-workload cannot be combined with -wal, -server, -batch, or -check")
		}
		idx := index.NewBwTreeWith("OpenBwTree", opts)
		defer idx.Close()
		wt := idx.(index.BwBacked).Tree()
		if *debugAddr != "" {
			srv, err := bwtree.ServeDebug(wt, *debugAddr)
			if err != nil {
				log.Fatalf("debug server: %v", err)
			}
			defer srv.Close()
			log.Printf("debug stats at http://%s/debug/stats (all endpoints: /debug)", srv.Addr())
		}
		sd := uint64(*seed)
		if sd == 0 {
			sd = uint64(time.Now().UnixNano())
		}
		if !runYcsbSoak(wt, wk, dist, *duration, *workers, *workloadKeys, sd) {
			os.Exit(1)
		}
		return
	}

	var t *bwtree.Tree
	var d *bwtree.Durable
	var checked *histcheck.Checked
	var newSession func() stressSession
	var pairs pairSource

	if *serverAddr != "" {
		ix, err := bwproto.DialIndex(*serverAddr)
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		defer ix.Close()
		base := func() session { return ix.NewSession().(session) }
		if *check {
			checked = histcheck.Wrap(ix, false)
			base = func() session { return checked.NewSession().(session) }
			log.Printf("history checking on: capped at %d ops", *checkOps)
		}
		newSession = func() stressSession { return plainSession{base()} }
		// The final sweep scans the server over the wire; mirrors are also
		// preloaded that way below, in case the server recovered old data.
		pairs = func(visit func(key []byte, value uint64)) {
			s := ix.NewSession()
			defer s.Release()
			s.Scan(nil, 1<<40, func(k []byte, v uint64) bool { visit(k, v); return true })
		}
		log.Printf("driving server at %s", *serverAddr)
	} else if *walDir != "" {
		var err error
		d, err = bwtree.OpenDurable(*walDir, bwtree.DurableOptions{Tree: opts, SyncOnCommit: true})
		if err != nil {
			log.Fatalf("open durable: %v", err)
		}
		t = d.Tree()
		pairs = treePairs(t)
		newSession = func() stressSession { return d.NewSession() }
		rec := d.RecoveryStats()
		log.Printf("durable tree open: %d snapshot keys, %d replayed, torn=%v", rec.SnapshotKeys, rec.Replayed, rec.TornTail)
	} else {
		idx := index.NewBwTreeWith("OpenBwTree", opts)
		defer idx.Close()
		t = idx.(index.BwBacked).Tree()
		pairs = treePairs(t)
		base := func() session { return t.NewSession() }
		if *check {
			checked = histcheck.Wrap(idx, false)
			// The recording session implements the batch surface natively; the
			// assertion converts past the narrower index.Session return type.
			base = func() session { return checked.NewSession().(session) }
			log.Printf("history checking on: capped at %d ops", *checkOps)
		}
		// Workers unwrap the adapter to reach the raw batch surface when
		// -batch is set.
		newSession = func() stressSession { return plainSession{base()} }
	}

	if *debugAddr != "" {
		var srv *bwtree.DebugServer
		var err error
		if d != nil {
			// wal mode gets the extended surface: WAL queue depth,
			// group-commit batch sizes, checkpoint age.
			srv, err = bwtree.ServeDurableDebug(d, *debugAddr)
		} else {
			srv, err = bwtree.ServeDebug(t, *debugAddr)
		}
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug stats at http://%s/debug/stats (also latency, trace, flightrec, phasetrace, metrics, pprof; index: /debug)", srv.Addr())
	}

	var stop atomic.Bool
	var failed atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	fail := func(w int, err error) {
		log.Printf("worker %d: %v", w, err)
		failed.Store(true)
	}

	mirrors := make([]*mirror, *workers)
	for w := 0; w < *workers; w++ {
		mirrors[w] = newMirror(w)
	}
	// curKeys lets the stall autopsy dump the descent path of whatever
	// key each worker was touching when progress stopped.
	curKeys := make([]atomic.Uint64, *workers)
	if d != nil || *serverAddr != "" {
		// A -wal directory (or a server that recovered one) may hold a
		// previous run's data; seed each worker's mirror with the recovered
		// keys of its congruence class so verification starts from the true
		// state.
		if n, err := preloadMirrors(pairs, mirrors); err != nil {
			log.Fatalf("preload mirrors: %v", err)
		} else if n > 0 {
			if checked != nil {
				log.Fatalf("-check requires an empty server, found %d preexisting keys", n)
			}
			log.Printf("mirrors preloaded with %d recovered keys", n)
		}
	}
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int, m *mirror) {
			defer wg.Done()
			ss := newSession()
			defer ss.Release()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			// Each worker owns keys ≡ w (mod workers) and mirrors their
			// exact state.
			base := uint64(w)
			nw := uint64(*workers)
			var out []uint64

			// Batch mode: queue inserts/deletes/lookups — at most one pending
			// op per key, so the mirror's expectation per entry is exact —
			// and flush through the batch API when the window fills.
			var bq *batchQueue
			if *batch > 1 {
				bq = newBatchQueue(ss.(plainSession).s, m, *batch)
			}

			for !stop.Load() {
				n := ops.Add(1)
				if *check && n > *checkOps {
					break
				}
				k := base + uint64(rng.Intn(int(*keyspace)))*nw
				curKeys[w].Store(k)
				switch rng.Intn(6) {
				case 0:
					v := rng.Uint64()
					if bq != nil {
						if err := bq.enqueue(k, v, 'I'); err != nil {
							fail(w, err)
							return
						}
						continue
					}
					ok, err := ss.Insert(key64(k), v)
					if err != nil {
						m.markPending('I', k, v)
						reportCrash(w, err, &failed)
						return
					}
					if cerr := m.applyInsert(k, v, ok); cerr != nil {
						fail(w, cerr)
						return
					}
				case 1:
					if bq != nil {
						if err := bq.enqueue(k, m.valueOr(k, 0), 'D'); err != nil {
							fail(w, err)
							return
						}
						continue
					}
					ok, err := ss.Delete(key64(k), m.valueOr(k, 0))
					if err != nil {
						m.markPending('D', k, 0)
						reportCrash(w, err, &failed)
						return
					}
					if cerr := m.applyDelete(k, ok); cerr != nil {
						fail(w, cerr)
						return
					}
				case 2:
					v := rng.Uint64()
					ok, err := ss.Update(key64(k), v)
					if err != nil {
						m.markPending('U', k, v)
						reportCrash(w, err, &failed)
						return
					}
					if cerr := m.applyUpdate(k, v, ok); cerr != nil {
						fail(w, cerr)
						return
					}
				case 3, 4:
					if bq != nil {
						if err := bq.enqueue(k, 0, 'L'); err != nil {
							fail(w, err)
							return
						}
						continue
					}
					out = ss.Lookup(key64(k), out[:0])
					if cerr := m.checkLookup(k, out); cerr != nil {
						fail(w, cerr)
						return
					}
				default:
					var prev uint64
					first := true
					ss.Scan(key64(k), 32, func(kk []byte, v uint64) bool {
						cur := binary.BigEndian.Uint64(kk)
						if !first && cur <= prev {
							fail(w, fmt.Errorf("scan order violation %d after %d", cur, prev))
							return false
						}
						prev, first = cur, false
						return true
					})
					if failed.Load() {
						return
					}
				}
			}
			// Drain the batch window so the mirror is exact for the final
			// sweep (previously pending ops at loop end went unverified).
			if bq != nil {
				if err := bq.flush(); err != nil {
					fail(w, err)
				}
			}
		}(w, mirrors[w])
	}

	// In wal mode, schedule the power failure at a random point in the
	// middle half of the run.
	crashSeed := *seed
	if crashSeed == 0 {
		crashSeed = time.Now().UnixNano()
	}
	crashRng := rand.New(rand.NewSource(crashSeed))
	var cpDone chan struct{}
	if d != nil {
		delay := *duration/4 + time.Duration(crashRng.Int63n(int64(*duration/2)))
		log.Printf("crash scheduled at t=%v (seed %d)", delay.Round(time.Millisecond), crashSeed)
		go func() {
			time.Sleep(delay)
			if err := d.Crash(); err != nil {
				log.Printf("crash: %v", err)
				failed.Store(true)
			}
			stop.Store(true)
		}()
		// Checkpoints race the workers and the crash; one may be cut off
		// mid-walk, which must be harmless. The goroutine is joined via
		// cpDone before d.Close() so no checkpoint is in flight when the
		// tree is torn down.
		cpDone = make(chan struct{})
		go func() {
			defer close(cpDone)
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for range tick.C {
				if stop.Load() {
					return
				}
				if lsn, err := d.Checkpoint(); err == nil {
					log.Printf("checkpoint at LSN %d", lsn)
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	start := time.Now()
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	// Stall detector (ported from the core reproducer's test scaffolding):
	// if the global op counter plateaus, the tree is wedged — every worker
	// is restarting against some poisoned state. Autopsy instead of
	// spinning silently until the deadline: note the anomaly (which also
	// force-dumps the flight recorder behind /debug/flightrec), dump each
	// worker's descent path for the key it was on, and fail.
	stallTick := time.NewTicker(time.Second)
	defer stallTick.Stop()
	lastOps, stalls := uint64(0), 0
loop:
	for time.Since(start) < *duration && !failed.Load() {
		select {
		case <-done:
			// Workers exhausted the -check op budget or the crash fired.
			break loop
		case <-stallTick.C:
			if *stallSecs <= 0 || stop.Load() {
				continue
			}
			if cur := ops.Load(); cur != lastOps {
				lastOps, stalls = cur, 0
				continue
			}
			if stalls++; stalls < *stallSecs {
				continue
			}
			if t != nil {
				log.Printf("STALL: no op progress for %ds; stats=%+v", *stallSecs, t.Stats())
				t.AnomalyNote(fmt.Sprintf("bwstress: op counter plateaued for %ds", *stallSecs))
				for w := 0; w < *workers; w++ {
					k := curKeys[w].Load()
					fmt.Fprintf(os.Stderr, "worker %d stuck on key %d:\n%s", w, k,
						bwtree.FormatPath(t.DescendPath(key64(k))))
				}
			} else {
				log.Printf("STALL: no op progress for %ds against %s", *stallSecs, *serverAddr)
			}
			failed.Store(true)
		case <-ticker.C:
			if t == nil {
				log.Printf("t=%v ops=%d (%.2f Mops/s) over the wire",
					time.Since(start).Round(time.Second), ops.Load(),
					float64(ops.Load())/time.Since(start).Seconds()/1e6)
				continue
			}
			st := t.Stats()
			log.Printf("t=%v ops=%d (%.2f Mops/s) aborts=%d splits=%d merges=%d consolidations=%d",
				time.Since(start).Round(time.Second), ops.Load(),
				float64(ops.Load())/time.Since(start).Seconds()/1e6,
				st.Aborts, st.Splits, st.Merges, st.Consolidations)
		}
	}
	stop.Store(true)
	<-done

	// Drain sampled traces before any teardown (the wal path closes the
	// tree that recorded them).
	var traces []bwtree.OpTrace
	if *traceOut != "" {
		traces = t.PhaseTraces()
	}

	if failed.Load() {
		fmt.Println("FAILED: inconsistency detected")
		os.Exit(1)
	}

	if d != nil {
		<-cpDone // join the checkpoint goroutine before teardown
		// Recover and verify against the recovered tree instead.
		if err := d.Close(); err != nil {
			fmt.Printf("FAILED: close after crash: %v\n", err)
			os.Exit(1)
		}
		if crashRng.Intn(2) == 0 {
			// Half the runs also damage the log the way a torn sector would.
			junk := make([]byte, 1+crashRng.Intn(64))
			crashRng.Read(junk)
			if err := appendGarbageToLastSegment(*walDir, junk); err != nil {
				log.Printf("torn-tail injection skipped: %v", err)
			} else {
				log.Printf("torn-tail injection: %d junk bytes appended", len(junk))
			}
		}
		d2, err := bwtree.OpenDurable(*walDir, bwtree.DurableOptions{Tree: opts})
		if err != nil {
			fmt.Printf("FAILED: recovery: %v\n", err)
			os.Exit(1)
		}
		defer d2.Close()
		rec := d2.RecoveryStats()
		log.Printf("recovered: %d snapshot keys, %d replayed (LSN %d), torn=%v, tail fold=%v merge+load=%v",
			rec.SnapshotKeys, rec.Replayed, rec.LastLSN, rec.TornTail, rec.Replay.Round(time.Millisecond), rec.SnapshotLoad.Round(time.Millisecond))
		t = d2.Tree()
		pairs = treePairs(t)
	}

	if t != nil {
		if err := t.Validate(); err != nil {
			fmt.Printf("FAILED: final validation: %v\n", err)
			os.Exit(1)
		}
	}
	if errs := sweepVerify(pairs, mirrors); len(errs) > 0 {
		for i, err := range errs {
			if i == 20 {
				fmt.Printf("  ... %d more\n", len(errs)-20)
				break
			}
			fmt.Printf("  mismatch: %v\n", err)
		}
		fmt.Printf("FAILED: final sweep found %d mismatches\n", len(errs))
		os.Exit(1)
	}
	if checked != nil {
		vs := checked.Check()
		for i, v := range vs {
			if i == 20 {
				fmt.Printf("  ... %d more\n", len(vs)-20)
				break
			}
			fmt.Printf("  violation: %v\n", v)
		}
		if len(vs) > 0 {
			fmt.Printf("FAILED: history check found %d violations over %d recorded ops\n", len(vs), checked.Ops())
			os.Exit(1)
		}
		fmt.Printf("history check: %d ops verified, zero violations\n", checked.Ops())
	}
	if *traceOut != "" {
		traces = append(traces, t.PhaseTraces()...)
		if err := writeTraceFile(*traceOut, traces); err != nil {
			fmt.Printf("FAILED: write trace: %v\n", err)
			os.Exit(1)
		}
		log.Printf("wrote %d sampled op traces to %s (load in chrome://tracing or ui.perfetto.dev)", len(traces), *traceOut)
	}
	if t == nil {
		// Server mode: the authoritative counters live server-side.
		if blob, err := serverStats(*serverAddr); err == nil {
			fmt.Printf("PASS: %d ops over the wire against %s\n  server: %s\n", ops.Load(), *serverAddr, blob)
		} else {
			fmt.Printf("PASS: %d ops over the wire against %s (stats unavailable: %v)\n", ops.Load(), *serverAddr, err)
		}
		return
	}
	st := t.Stats()
	fmt.Printf("PASS: %d ops, %d aborts (%.2f%%), %d splits, %d merges, final count %d\n",
		ops.Load(), st.Aborts, st.AbortRate()*100, st.Splits, st.Merges, t.Count())
	if lat := t.Latencies(); lat != nil {
		for class, m := range lat.Summary() {
			fmt.Printf("  %-7s n=%-10.0f p50=%7.2fus p99=%7.2fus p99.9=%7.2fus\n",
				class, m["count"], m["p50_us"], m["p99_us"], m["p999_us"])
		}
	}
}

// writeTraceFile renders the sampled traces as Chrome trace-event JSON.
func writeTraceFile(path string, traces []bwtree.OpTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bwtree.WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverStats fetches a compact stats line from the server.
func serverStats(addr string) (string, error) {
	c, err := bwproto.Dial(addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	blob, err := c.Stats()
	if err != nil {
		return "", err
	}
	var parsed struct {
		Server struct {
			ConnsTotal uint64 `json:"conns_total"`
			Frames     uint64 `json:"frames"`
			Errors     uint64 `json:"proto_errors"`
		} `json:"server"`
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d shards, %d frames over %d connections, %d protocol errors",
		parsed.Shards, parsed.Server.Frames, parsed.Server.ConnsTotal, parsed.Server.Errors), nil
}

// reportCrash distinguishes the expected simulated-crash error from a
// real failure.
func reportCrash(w int, err error, failed *atomic.Bool) {
	if errors.Is(err, wal.ErrCrashed) || errors.Is(err, wal.ErrClosed) {
		return // expected in wal mode: the in-flight op is now pending-unknown
	}
	log.Printf("worker %d: unexpected error: %v", w, err)
	failed.Store(true)
}
