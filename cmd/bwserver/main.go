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
// With -wal DIR the store is durable: each shard owns a log directory
// DIR/shard-NNN (group commit, synchronous acknowledgement), recovery
// replays all shard logs in parallel on startup, and SIGINT/SIGTERM shut
// down gracefully — stop accepting, drain connections, checkpoint every
// shard, close the logs.
//
// Drive it with the stress rig or the benchmark harness:
//
//	go run ./cmd/bwstress -server localhost:7070 -workers 64 -check
//	SERVER_ADDR=localhost:7070 go run ./cmd/bwbench server
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
	walDir := flag.String("wal", "", "WAL root directory (empty = volatile); each shard logs under <dir>/shard-NNN")
	sync := flag.Bool("sync", true, "durable only: fsync before acknowledging commits")
	debugAddr := flag.String("debug-addr", "", "serve /debug and /metrics on this address")
	lat := flag.Bool("lat", false, "record latency histograms (adds two clock reads per op)")
	phaseEvery := flag.Int("phase-every", 0, "sample a full phase trace every N ops per session (0 = off)")
	flightRec := flag.Int("flightrec", 0, "per-session flight-recorder ring size (0 = off)")
	drainTimeout := flag.Duration("drain", 5*time.Second, "shutdown: how long to wait for connections to drain")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("bwserver: ")

	treeOpts := bwtree.DefaultOptions()
	treeOpts.LatencyHistograms = *lat
	treeOpts.PhaseSampleEvery = *phaseEvery
	treeOpts.FlightRecorderSize = *flightRec

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
		log.Printf("recovered %d shard logs in %v: %d snapshot keys, %d records replayed, torn_tail=%v",
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
