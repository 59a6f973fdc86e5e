package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/wal"
)

// config is one run's arguments.
type config struct {
	seed    uint64
	clients int
	window  time.Duration
	trace   bool
	dir     string // scratch for log directories
	outDir  string // where a traced run leaves its Chrome trace file
	toy     bool   // smoke-test scale: 10 k keys
}

// A phase drives every client through one layer boundary. The untraced run
// has one phase, the boundary a user of the workload calls (e2e); the
// traced run walks the boundaries innermost first.
type phase struct {
	name  string // boundary; also the trace category
	inner string // the boundary one layer in, for linking spans
	e2e   bool
	// client opens worker w's handle on the boundary. rec is nil when the
	// phase is not traced.
	client    func(w int, rec *spanBuf) (stepFn, func(), error)
	onSegment func(w, seg int)
	// tail finishes what the window's last requests left pending and
	// returns how long that took.
	tail func() time.Duration
	// report adds metrics only this phase can give to m, from the traced
	// window's summary and its spans' medians by name.
	report func(sm summary, spans map[string]float64, m map[string]float64)
}

// An instance is a workload after set-up.
type instance interface {
	phases(trace bool) ([]phase, error)
	// snapshot reads the layers' cumulative counters.
	snapshot(s *snap)
	structure() []bwtree.StructureStats
	// gauges reads the two levels that only a maximum over time describes.
	gauges() (epochLag, walQueue uint64)
	live() int
	// finish verifies the store against the mirrors and adds the
	// workload's own metrics to m. bad counts failed checks.
	finish(m map[string]float64) (bad int, err error)
	close()
}

var (
	errMissing = errors.New("benchmark: key missing")
	errLoad    = errors.New("benchmark: store refused a set-up write")
)

func errOr(err, alt error) error {
	if err != nil {
		return err
	}
	return alt
}

// perWorker runs fn once per client concurrently and sums what it returns.
func perWorker(clients int, fn func(w int) int) int {
	out := make([]int, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = fn(w)
		}(w)
	}
	wg.Wait()
	sum := 0
	for _, n := range out {
		sum += n
	}
	return sum
}

var minKey = []byte{0}

// walkTree is an ordered walk of a whole tree, for keyspace.sweep.
func walkTree(t *bwtree.Tree) func(visit func(k []byte, v uint64) bool) {
	return func(visit func(k []byte, v uint64) bool) {
		s := t.NewSession()
		defer s.Release()
		s.Scan(minKey, math.MaxInt, visit)
	}
}

func loadTree(t *bwtree.Tree, ks *keyspace) error {
	failed := perWorker(int(ks.clients), func(w int) int {
		s := t.NewSession()
		defer s.Release()
		return ks.load(w, func(k []byte, v uint64) bool { return s.Insert(k, v) })
	})
	if failed > 0 {
		return errLoad
	}
	return nil
}

// ---- mem-read, mem-update: a bare tree ----

type memInst struct {
	cfg config
	t   *bwtree.Tree
	ks  *keyspace
	mix mix
}

func setupMem(m mix) func(config, int) (instance, error) {
	return func(cfg config, keys int) (instance, error) {
		in := &memInst{cfg: cfg, t: bwtree.New(bwtree.DefaultOptions()), ks: newKeyspace(cfg.seed, keys, cfg.clients), mix: m}
		if err := loadTree(in.t, in.ks); err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}
}

func (in *memInst) phases(bool) ([]phase, error) {
	return []phase{{name: "core", e2e: true, client: func(w int, rec *spanBuf) (stepFn, func(), error) {
		k := traced(newTreeKV(nil, in.t), rec, "core", "")
		return newKVClient(w, in.cfg.seed, in.ks, k, in.mix).step, k.release, nil
	}}}, nil
}

func (in *memInst) snapshot(s *snap) { s.core = in.t.Stats() }
func (in *memInst) structure() []bwtree.StructureStats {
	return []bwtree.StructureStats{in.t.StructureStats()}
}
func (in *memInst) gauges() (uint64, uint64) { return in.t.Stats().GC.EpochLag, 0 }
func (in *memInst) live() int                { return in.ks.live() }
func (in *memInst) close()                   { in.t.Close() }
func (in *memInst) finish(map[string]float64) (int, error) {
	_, bad := in.ks.sweep(walkTree(in.t))
	return bad, nil
}

// ---- wire-point, wire-pipe, wire-scan: sharded store behind the wire server ----

// wireSpec is what differs between the wire workloads.
type wireSpec struct {
	mix  mix
	ping bool // also measure an empty frame's round trip
	// echoReq and echoResp are the workload's typical request and response
	// frame sizes in bytes, for the bare-TCP floor.
	echoReq, echoResp int
}

type wireInst struct {
	cfg  config
	spec wireSpec
	st   *shard.Store
	sv   *bwproto.Server
	addr string
	ks   *keyspace
	nc   *netCounts // traced runs only
	echo *echoServer
}

// openServer opens a 2-shard in-memory store and serves it on loopback.
// With nc set, the listener hands the server counted connections.
func openServer(nc *netCounts) (*shard.Store, *bwproto.Server, string, error) {
	st, err := shard.Open(shard.Options{Shards: 2, Tree: bwtree.DefaultOptions()})
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, nil, "", err
	}
	if nc != nil {
		ln = countListener{ln, nc}
	}
	sv := bwproto.NewServer(st)
	addr := ln.Addr().String()
	go sv.Serve(ln) // ends when closeServer's Shutdown closes ln, and Shutdown waits for it
	// An answered ping proves Serve is accepting, so that Shutdown finds
	// the listener to close.
	probe, err := dial(addr, nil)
	if err != nil {
		ln.Close()
		st.Close()
		return nil, nil, "", err
	}
	probe.Close()
	return st, sv, addr, nil
}

func closeServer(st *shard.Store, sv *bwproto.Server) {
	sv.Shutdown(2 * time.Second)
	st.Close()
}

// dial opens one client connection and proves the server answers on it.
func dial(addr string, nc *netCounts) (*bwproto.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if nc != nil {
		c = nc.client(c)
	}
	conn := bwproto.NewConn(c)
	if err := conn.Ping(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ping %s: %w", addr, err)
	}
	return conn, nil
}

func setupWire(spec wireSpec) func(config, int) (instance, error) {
	return func(cfg config, keys int) (instance, error) {
		in := &wireInst{cfg: cfg, spec: spec, ks: newKeyspace(cfg.seed, keys, cfg.clients)}
		if cfg.trace {
			in.nc = &netCounts{}
		}
		var err error
		if in.st, in.sv, in.addr, err = openServer(in.nc); err != nil {
			return nil, err
		}
		failed := perWorker(cfg.clients, func(w int) int {
			s := in.st.NewSession()
			defer s.Release()
			return in.ks.load(w, func(k []byte, v uint64) bool {
				ok, err := s.Insert(k, v)
				return ok && err == nil
			})
		})
		if failed > 0 {
			in.close()
			return nil, errLoad
		}
		return in, nil
	}
}

func storeTrees(st *shard.Store) []*bwtree.Tree {
	var ts []*bwtree.Tree
	for _, sh := range st.Shards() {
		ts = append(ts, sh.Tree())
	}
	return ts
}

func (in *wireInst) kvPhase(name, inner string, open func() (kv, error), m mix) phase {
	return phase{name: name, inner: inner, client: func(w int, rec *spanBuf) (stepFn, func(), error) {
		k, err := open()
		if err != nil {
			return nil, nil, err
		}
		k = traced(k, rec, name, "")
		return newKVClient(w, in.cfg.seed, in.ks, k, m).step, k.release, nil
	}}
}

func (in *wireInst) phases(trace bool) ([]phase, error) {
	outer := in.kvPhase("bwproto", "shard", func() (kv, error) {
		c, err := dial(in.addr, in.nc)
		return connKV{c}, err
	}, in.spec.mix)
	outer.e2e = true
	if !trace {
		return []phase{outer}, nil
	}
	var err error
	if in.echo, err = startEcho(in.spec.echoReq, in.spec.echoResp); err != nil {
		return nil, err
	}
	ps := []phase{{name: "net", client: func(_ int, rec *spanBuf) (stepFn, func(), error) { return in.echo.client(rec) }}}
	if in.spec.ping {
		ping := spanName("bwproto.ping")
		ps = append(ps, phase{name: "bwproto.ping", client: func(_ int, rec *spanBuf) (stepFn, func(), error) {
			c, err := dial(in.addr, nil)
			if err != nil {
				return nil, nil, err
			}
			return func() (int, int) {
				t := time.Now()
				err := c.Ping()
				rec.add(ping, t)
				if err != nil {
					return 1, 1
				}
				return 1, 0
			}, func() { c.Close() }, nil
		}})
	}
	if in.spec.mix.frame > 0 {
		// What the tree's batch traversal cache would give a frame of gets.
		gets := in.spec.mix
		gets.get = 100
		var hits0 uint64 // the trees' batch-cache hits when the phase's clients opened
		p := in.kvPhase("core.batch_get", "", func() (kv, error) {
			hits0 = in.st.Stats().BatchLeafHits
			return &treeBatchKV{treeKV: newTreeKV(in.st.Router(), storeTrees(in.st)...)}, nil
		}, gets)
		p.report = func(sm summary, spans map[string]float64, m map[string]float64) {
			m["core.batch_get_us"] = spans["core.batch_get.batch"] / float64(gets.frame) // per key
			m["core.batch_leaf_hit_ratio"] = float64(in.st.Stats().BatchLeafHits-hits0) / float64(sm.Ops)
		}
		ps = append(ps, p)
	}
	ps = append(ps,
		in.kvPhase("core", "", func() (kv, error) { return newTreeKV(in.st.Router(), storeTrees(in.st)...), nil }, in.spec.mix),
		in.kvPhase("shard", "core", func() (kv, error) { return shardKV{in.st.NewSession()}, nil }, in.spec.mix),
		outer)
	return ps, nil
}

func (in *wireInst) snapshot(s *snap) { snapshotServer(s, in.st, in.sv, in.nc) }

func snapshotServer(s *snap, st *shard.Store, sv *bwproto.Server, nc *netCounts) {
	s.core = st.Stats()
	s.shardOps = s.shardOps[:0]
	for _, sh := range st.Shards() {
		s.shardOps = append(s.shardOps, sh.Tree().Stats().Ops)
	}
	srv := sv.Stats()
	s.srv = &srv
	if nc != nil {
		s.net = &[5]uint64{nc.clientReads.Load(), nc.clientWrites.Load(), nc.serverReads.Load(), nc.serverWrites.Load(), nc.bytes.Load()}
	}
}

func storeStructure(st *shard.Store) []bwtree.StructureStats {
	var out []bwtree.StructureStats
	for _, sh := range st.Shards() {
		out = append(out, sh.Tree().StructureStats())
	}
	return out
}

func walkStore(st *shard.Store) func(visit func(k []byte, v uint64) bool) {
	return func(visit func(k []byte, v uint64) bool) {
		s := st.NewSession()
		defer s.Release()
		s.Scan(minKey, math.MaxInt, visit)
	}
}

func (in *wireInst) structure() []bwtree.StructureStats { return storeStructure(in.st) }
func (in *wireInst) gauges() (uint64, uint64)           { return in.st.Stats().GC.EpochLag, 0 }
func (in *wireInst) live() int                          { return in.ks.live() }
func (in *wireInst) finish(map[string]float64) (int, error) {
	_, bad := in.ks.sweep(walkStore(in.st))
	return bad + int(in.sv.Stats().ProtoErrors), nil
}
func (in *wireInst) close() {
	closeServer(in.st, in.sv)
	if in.echo != nil {
		in.echo.stop()
	}
}

// ---- durable-write: the Durable façade over its log ----

var durableMix = mix{insert: 50, update: 50}

type durInst struct {
	cfg  config
	keys int
	root string // scratch directory holding every log of this instance
	d    *bwtree.Durable
	ks   *keyspace
	cps  []time.Duration // worker 0's checkpoints

	// traced runs only: the layers under the façade, each on its own
	sideTree *bwtree.Tree
	sideLog  *wal.Writer
	syncD    *bwtree.Durable
}

func (in *durInst) logDir() string { return filepath.Join(in.root, "log") }

// walSegment is the log's segment size. A checkpoint prunes whole segments
// only, so with the 64 MiB default a ten-second window rotates about once
// and the bytes on disk depend on when; 8 MiB lets them level off.
const walSegment = 8 << 20

func openDurable(dir string, syncOnCommit bool) (*bwtree.Durable, error) {
	return bwtree.OpenDurable(dir, bwtree.DurableOptions{
		Tree: bwtree.DefaultOptions(), WAL: wal.Options{SegmentSize: walSegment}, SyncOnCommit: syncOnCommit,
	})
}

// dirBytes is what the store holds on disk: log segments, snapshot and
// manifest.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

func setupDurable(cfg config, keys int) (instance, error) {
	root, err := os.MkdirTemp(cfg.dir, "durable-")
	if err != nil {
		return nil, err
	}
	in := &durInst{cfg: cfg, keys: keys, root: root, ks: newKeyspace(cfg.seed, keys, cfg.clients)}
	if in.d, err = openDurable(in.logDir(), false); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	failed := perWorker(cfg.clients, func(w int) int {
		s := in.d.NewSession()
		defer s.Release()
		return in.ks.load(w, func(k []byte, v uint64) bool {
			ok, err := s.Insert(k, v)
			return ok && err == nil
		})
	})
	if err = in.d.Sync(); err == nil && failed > 0 {
		err = errLoad
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// writePhase is a durableMix client over a boundary with its own keyspace;
// every write's span is called set.
func (in *durInst) writePhase(name, set string, ks *keyspace, m mix, open func() kv) phase {
	return phase{name: name, client: func(w int, rec *spanBuf) (stepFn, func(), error) {
		k := traced(open(), rec, name, set)
		return newKVClient(w, in.cfg.seed, ks, k, m).step, k.release, nil
	}}
}

func (in *durInst) phases(trace bool) ([]phase, error) {
	outer := in.writePhase("bwtree", "bwtree.durable_set", in.ks, durableMix, func() kv { return durableKV{in.d.NewSession()} })
	outer.e2e = true
	// Worker 0 checkpoints as it enters each segment: background work that
	// completes several cycles inside the window, while the other clients
	// keep writing.
	outer.onSegment = func(w, _ int) {
		if w != 0 {
			return
		}
		t := time.Now()
		if _, err := in.d.Checkpoint(); err == nil {
			in.cps = append(in.cps, time.Since(t))
		}
	}
	// The window ends with one Sync: writes are acknowledged before they
	// are flushed, so the flush the last ones still wait for is part of it.
	outer.tail = func() time.Duration {
		t := time.Now()
		in.d.Sync()
		return time.Since(t)
	}
	if !trace {
		return []phase{outer}, nil
	}

	// core: the same writes on a bare tree with the same population.
	in.sideTree = bwtree.New(bwtree.DefaultOptions())
	treeKS := newKeyspace(in.cfg.seed, in.keys, in.cfg.clients)
	if err := loadTree(in.sideTree, treeKS); err != nil {
		return nil, err
	}
	// wal: the same records appended straight to a log writer. Its
	// mirrors are filled without a store: the log takes any record.
	var err error
	if in.sideLog, err = wal.NewWriter(filepath.Join(in.root, "side-log"), wal.Options{SegmentSize: walSegment}, 1); err != nil {
		return nil, err
	}
	logKS := newKeyspace(in.cfg.seed, in.keys, in.cfg.clients)
	for w := 0; w < in.cfg.clients; w++ {
		logKS.load(w, func([]byte, uint64) bool { return true })
	}
	// sync: inserts into an empty store that waits for the fsync of every
	// write before acknowledging it.
	if in.syncD, err = openDurable(filepath.Join(in.root, "sync-log"), true); err != nil {
		return nil, err
	}
	syncKS := newKeyspace(in.cfg.seed, in.cfg.clients, in.cfg.clients)

	return []phase{
		in.writePhase("core", "", treeKS, durableMix, func() kv { return newTreeKV(nil, in.sideTree) }),
		in.writePhase("wal", "wal.append", logKS, durableMix, func() kv { return walKV{in.sideLog} }),
		in.writePhase("bwtree.sync", "bwtree.sync_set", syncKS, mix{insert: 100}, func() kv { return durableKV{in.syncD.NewSession()} }),
		outer,
	}, nil
}

func (in *durInst) snapshot(s *snap) {
	in.d.Sync() // counters of bytes and syncs settle only once the queue is flushed
	s.core = in.d.Tree().Stats()
	w := in.d.WALStats()
	s.wal = &w
}

func (in *durInst) structure() []bwtree.StructureStats {
	return []bwtree.StructureStats{in.d.Tree().StructureStats()}
}
func (in *durInst) gauges() (uint64, uint64) {
	return in.d.Tree().Stats().GC.EpochLag, in.d.WALStats().QueueRecords
}
func (in *durInst) live() int { return in.ks.live() }

// finish crashes the store, recovers it from the bytes the last Sync
// flushed, and compares what came back with the mirrors.
func (in *durInst) finish(m map[string]float64) (int, error) {
	if err := in.d.Sync(); err != nil {
		return 0, err
	}
	disk, err := dirBytes(in.logDir())
	if err != nil {
		return 0, err
	}
	m["disk_bytes_per_user_byte"] = float64(disk) / float64(in.ks.live()*16)
	if len(in.cps) > 0 {
		var sum time.Duration
		for _, d := range in.cps {
			sum += d
		}
		m["bwtree.checkpoint_s"] = sum.Seconds() / float64(len(in.cps))
	}
	if err := in.d.Crash(); err != nil {
		return 0, err
	}
	in.d.Close() // reports the simulated crash; the store is gone either way

	// Log decode alone: the tail a recovery would replay, with no tree.
	man, _, err := wal.LoadManifest(in.logDir())
	if err != nil {
		return 0, err
	}
	t := time.Now()
	rs, err := wal.Replay(in.logDir(), man.LSN, func(wal.Record) error { return nil })
	if err != nil {
		return 0, err
	}
	if d := time.Since(t); rs.Records > 0 {
		m["wal.replay_krec_per_s"] = float64(rs.Records) / d.Seconds() / 1e3
	}

	t = time.Now()
	if in.d, err = openDurable(in.logDir(), false); err != nil {
		return 0, err
	}
	wall := time.Since(t)
	rec := in.d.RecoveryStats()
	m["recovery_krec_per_s"] = float64(rec.SnapshotKeys+uint64(rec.Replayed)) / wall.Seconds() / 1e3
	if rec.SnapshotKeys > 0 {
		m["bwtree.recovery_snapshot_krec_per_s"] = float64(rec.SnapshotKeys) / rec.SnapshotLoad.Seconds() / 1e3
	}
	if rec.Replayed > 0 {
		m["bwtree.recovery_replay_krec_per_s"] = float64(rec.Replayed) / rec.Replay.Seconds() / 1e3
	}
	_, bad := in.ks.sweep(walkTree(in.d.Tree()))
	return bad, nil
}

func (in *durInst) close() {
	in.d.Close()
	if in.sideTree != nil {
		in.sideTree.Close()
	}
	if in.sideLog != nil {
		in.sideLog.Close()
	}
	if in.syncD != nil {
		in.syncD.Close()
	}
	os.RemoveAll(in.root)
}

// ---- txn-mix: the OCC engine over a 2-shard store ----

type txnInst struct {
	cfg  config
	st   *shard.Store
	sv   *bwproto.Server // owns the transaction engine; only traced runs send it frames
	addr string
	ks   *keyspace
	nc   *netCounts
	echo *echoServer

	mu             sync.Mutex
	first, firstOK [2]uint64 // folded from the engine-boundary clients
}

func setupTxn(cfg config, keys int) (instance, error) {
	in := &txnInst{cfg: cfg, ks: newKeyspace(cfg.seed, keys, cfg.clients)}
	if cfg.trace {
		in.nc = &netCounts{}
	}
	var err error
	if in.st, in.sv, in.addr, err = openServer(in.nc); err != nil {
		return nil, err
	}
	// Open every account through chunked write-only transactions.
	s := in.sv.Txn().NewSession()
	defer s.Release()
	const chunk = 1024
	var keyBuf [chunk][8]byte
	writes := make([]index.TxnWrite, 0, chunk)
	for at := 0; at < keys && err == nil; at += chunk {
		writes = writes[:0]
		for i := at; i < at+chunk && i < keys; i++ {
			writes = append(writes, index.TxnWrite{Op: index.TxnPut, Key: in.ks.key(keyBuf[i-at][:], uint64(i)), Value: bankInitial})
		}
		var res index.TxnResult
		if res, err = s.CommitTxn(nil, writes); err == nil && res.Status != index.TxnCommitted {
			err = errLoad
		}
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// bankPhase drives bank clients over a transaction session. Below the
// engine the session is a kvTxn over the boundary's kv and moves nothing.
func (in *txnInst) bankPhase(name, inner string, dry bool, open func(rec *spanBuf) (index.TxnSession, error)) phase {
	engine := name == "txn" // the boundary whose first-attempt outcomes are commit_ratio
	return phase{name: name, inner: inner, client: func(w int, rec *spanBuf) (stepFn, func(), error) {
		ts, err := open(rec)
		if err != nil {
			return nil, nil, err
		}
		c := newBankClient(w, in.cfg.seed, in.ks, ts, dry)
		return c.step, func() {
			ts.Release()
			if engine {
				in.mu.Lock()
				for k := range c.first {
					in.first[k] += c.first[k]
					in.firstOK[k] += c.firstOK[k]
				}
				in.mu.Unlock()
			}
		}, nil
	}}
}

func (in *txnInst) phases(trace bool) ([]phase, error) {
	engine := in.bankPhase("txn", "shard", false, func(rec *spanBuf) (index.TxnSession, error) {
		return tracedTxn(in.sv.Txn().NewTxnSession(), rec, "txn"), nil
	})
	engine.e2e = true
	if !trace {
		return []phase{engine}, nil
	}
	var err error
	// An OpTxn frame with two reads and two writes, and its response.
	if in.echo, err = startEcho(87, 36); err != nil {
		return nil, err
	}
	trees := storeTrees(in.st)
	return []phase{
		{name: "net", client: func(_ int, rec *spanBuf) (stepFn, func(), error) { return in.echo.client(rec) }},
		in.bankPhase("core", "", true, func(rec *spanBuf) (index.TxnSession, error) {
			return &kvTxn{kv: traced(newTreeKV(in.st.Router(), trees...), rec, "core", "")}, nil
		}),
		in.bankPhase("shard", "core", true, func(rec *spanBuf) (index.TxnSession, error) {
			return &kvTxn{kv: traced(shardKV{in.st.NewSession()}, rec, "shard", "")}, nil
		}),
		engine,
		in.bankPhase("bwproto", "txn", false, func(rec *spanBuf) (index.TxnSession, error) {
			c, err := dial(in.addr, in.nc)
			if err != nil {
				return nil, err
			}
			return tracedTxn(connTxn{c}, rec, "bwproto"), nil
		}),
	}, nil
}

func (in *txnInst) snapshot(s *snap) {
	snapshotServer(s, in.st, in.sv, in.nc)
	t := in.sv.Txn().Stats()
	s.txn = &t
}

func (in *txnInst) structure() []bwtree.StructureStats { return storeStructure(in.st) }
func (in *txnInst) gauges() (uint64, uint64)           { return in.st.Stats().GC.EpochLag, 0 }
func (in *txnInst) live() int                          { return int(in.ks.n) }

// finish asserts that money was conserved: every account is there and the
// balances add up to what was opened.
func (in *txnInst) finish(m map[string]float64) (int, error) {
	if in.first[0] > 0 {
		m["commit_ratio"] = float64(in.firstOK[0]) / float64(in.first[0])
	}
	if in.first[1] > 0 {
		m["audit_commit_ratio"] = float64(in.firstOK[1]) / float64(in.first[1])
	}
	var n, sum uint64
	walkStore(in.st)(func(_ []byte, v uint64) bool {
		n++
		sum += v
		return true
	})
	bad := 0
	if n != in.ks.n || sum != in.ks.n*bankInitial {
		bad++
	}
	return bad + int(in.sv.Stats().ProtoErrors), nil
}

func (in *txnInst) close() {
	closeServer(in.st, in.sv)
	if in.echo != nil {
		in.echo.stop()
	}
}
