// bwserver is the sharded serving tier: the keyspace is partitioned
// across N per-core Bw-Tree shards (hash or range routed), fronted by a
// pipelined length-prefixed binary protocol (internal/bwproto) over TCP.
// Every connection gets its own store session — per-shard epoch handles
// and scratch — mirroring the paper's "index inside a DBMS with a worker
// pool" deployment (§2) scaled out the way per-core designs shard to
// dodge cross-core synchronization entirely.
//
// Run a volatile 8-shard server with a debug surface:
//
//	go run ./cmd/bwserver -addr :7070 -shards 8 -debug-addr :7071
//
// A volatile server is the durable store without its log: plain writes
// (SET/DEL/BATCH) and transactional commits (OpTxn) take the same
// per-key stripes, so clients may mix them safely, exactly as with -wal.
//
// Add -trace (bwtree Options.Trace on every shard) for latency quantiles,
// structural events, the flight recorder and sampled phase traces at
// /debug/latency, /debug/trace, /debug/flightrec and /debug/phasetrace,
// and bwtree_chain_depth on /metrics.
//
// With -wal DIR the store is durable: every shard writes one log in DIR
// (group commit, synchronous acknowledgement), recovery replays it once
// and loads the shards in parallel on startup, and SIGINT/SIGTERM shut
// down gracefully — stop accepting, drain connections, checkpoint, close
// the log.
//
// The repo benchmark's wire-point, wire-pipe and wire-scan workloads
// measure the same server over loopback
// (bash benchmark/run.sh --workload wire-point).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/txn"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "number of tree shards")
	router := flag.String("router", "hash", "keyspace router: hash or range")
	walDir := flag.String("wal", "", "WAL directory (empty = volatile); every shard writes its one log")
	sync := flag.Bool("sync", true, "durable only: fsync before acknowledging commits")
	debugAddr := flag.String("debug-addr", "", "serve /debug and /metrics on this address")
	trace := flag.Bool("trace", false, "record latency histograms, events, the flight recorder and a phase trace of every 7th op (adds two clock reads per op)")
	drainTimeout := flag.Duration("drain", 5*time.Second, "shutdown: how long to wait for connections to drain")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("bwserver: ")

	treeOpts := bwtree.DefaultOptions()
	treeOpts.Trace = *trace

	r, err := shard.NewRouter(*router, *shards)
	if err != nil {
		log.Fatal(err)
	}
	opened := time.Now()
	st, err := shard.Open(shard.Options{
		Shards:       *shards,
		Router:       r,
		Tree:         treeOpts,
		WALDir:       *walDir,
		SyncOnCommit: *sync,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *walDir != "" {
		rec := st.RecoveryStats()
		log.Printf("recovered %d shards in %v: %d snapshot keys, %d records replayed, torn_tail=%v",
			*shards, time.Since(opened).Round(time.Millisecond), rec.SnapshotKeys, rec.Replayed, rec.TornTail)
	}

	srv := bwproto.NewServer(st)

	var debug *obs.Server
	if *debugAddr != "" {
		// The transaction engine hangs off the protocol server, so its
		// counters (txn_commits, txn_conflicts, validate latency) join the
		// store's series on /metrics.
		debug, err = obs.Serve(*debugAddr, txn.AugmentVars(shard.DebugVars(st), srv.Txn()))
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug surface on http://%s/debug", debug.Addr())
	}

	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s: %d shards, %s router, durable=%v", srv.Addr(), *shards, r.Name(), *walDir != "")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: draining connections (up to %v)", *drainTimeout)
	srv.Shutdown(*drainTimeout)
	if debug != nil {
		debug.Close()
	}
	if *walDir != "" {
		if err := st.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Printf("final checkpoint complete")
		}
	}
	if err := st.Close(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
	s := srv.Stats()
	fmt.Printf("bwserver: served %d frames over %d connections, %d protocol errors\n",
		s.Frames, s.ConnsTotal, s.ProtoErrors)
}
