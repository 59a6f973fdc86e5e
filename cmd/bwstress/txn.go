package main

// The -txn mode: a bank-transfer soak for the optimistic transaction
// layer (internal/txn). N accounts start with an equal balance; workers
// move random amounts between random pairs through multi-key commits.
// The invariant is global and unforgiving: the total balance never
// changes, no matter how transfers interleave, conflict, crash, or
// recover — any torn commit, lost write, or half-applied WAL record
// shifts the sum.
//
// Three invariant probes run at different trust levels:
//
//  1. Online audit transactions: every worker periodically commits a
//     read-only transaction over EVERY account. OCC validation makes a
//     committed audit a serializable snapshot, so its sum must be exact
//     — catching torn visibility while the workload is still running.
//  2. Quiescent sweeps after every stop (and every recovery): re-read
//     all accounts and compare against the seeded total.
//  3. With -check, every committed transfer is recorded and the history
//     is verified conflict-serializable (histcheck.CheckSerial) — per
//     recovery epoch: a crash restarts the store's version counter, so
//     each incarnation's history is checked and drained at the recovery
//     boundary, with earlier epochs' surviving writes acting as
//     pre-history.
//
// Deployment shapes, matching the non-transactional soak:
//
//	bwstress -txn                          one in-memory shard
//	bwstress -txn -wal DIR                 one durable shard, -kills crash/recover cycles
//	bwstress -txn -wal DIR -shards 4       four durable shards over one log
//	bwstress -txn -server ADDR             live server over the wire
//	bwstress -txn -spawn BIN -wal DIR      child bwserver, SIGKILL + restart cycles
import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/histcheck"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/txn"
)

type txnCfg struct {
	duration time.Duration
	workers  int
	accounts uint64
	initial  uint64
	server   string // drive a running server
	spawn    string // bwserver binary: spawn, SIGKILL, restart
	walDir   string
	shards   int
	kills    int
	check    bool
	seed     int64
}

func acctKey(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

// txnCounters aggregates workload totals across workers and phases.
type txnCounters struct {
	commits   atomic.Uint64
	conflicts atomic.Uint64
	audits    atomic.Uint64
	infra     atomic.Uint64 // commits interrupted by crash/kill
}

func runTxnSoak(cfg txnCfg) {
	if cfg.seed == 0 {
		cfg.seed = time.Now().UnixNano()
	}
	if cfg.accounts < 2 {
		log.Fatal("-txn-accounts must be at least 2")
	}
	log.Printf("txn soak: %d accounts × %d, %d workers, %v, seed %d",
		cfg.accounts, cfg.initial, cfg.workers, cfg.duration, cfg.seed)

	var chk *histcheck.TxnChecker
	if cfg.check {
		chk = histcheck.NewTxnChecker()
		log.Printf("serializability checking on: recording committed transfers")
	}

	var c txnCounters
	switch {
	case cfg.spawn != "":
		runTxnSpawn(cfg, chk, &c)
	case cfg.server != "":
		runTxnServer(cfg, chk, &c)
	default:
		runTxnLocal(cfg, chk, &c)
	}

	log.Printf("txn soak done: %d commits (%d audits), %d conflicts, %d interrupted",
		c.commits.Load(), c.audits.Load(), c.conflicts.Load(), c.infra.Load())
	checkEpoch(chk, "final", log.Fatalf)
}

// checkEpoch verifies and drains the recorded history at a recovery
// boundary (and at exit). Callers must hold the workers quiescent; any
// violation goes through fatalf (the spawn shape reaps its child there).
// See the package comment for why histories are segmented per store
// incarnation.
func checkEpoch(chk *histcheck.TxnChecker, what string, fatalf func(string, ...any)) {
	if chk == nil {
		return
	}
	n, violations := chk.CheckReset()
	for _, v := range violations {
		log.Printf("HISTORY VIOLATION: %v", v)
	}
	if len(violations) > 0 {
		fatalf("txn history (%s) NOT serializable: %d violations over %d transactions", what, len(violations), n)
	}
	log.Printf("history check passed (%s): %d committed transactions, conflict-serializable", what, n)
}

// runTxnLocal covers the in-process shapes, one shard.Store each: in
// memory, or durable with -kills crash/recover cycles.
func runTxnLocal(cfg txnCfg, chk *histcheck.TxnChecker, c *txnCounters) {
	kills := cfg.kills
	if cfg.walDir == "" {
		kills = 0 // nothing survives a crash without a log; nothing to verify
	}
	slice := cfg.duration / time.Duration(kills+1)
	total := cfg.accounts * cfg.initial

	for cycle := 0; cycle <= kills; cycle++ {
		store, crash, cleanup := openTxnStore(cfg)
		seedAccounts(store, cfg, chk)
		if sum := sweepSum(store, cfg); sum != total {
			log.Fatalf("cycle %d: sum after open = %d, want %d", cycle, sum, total)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := wrapTxn(store.NewSession(), chk)
				defer s.Release()
				txnWorker(s, cfg, int64(cycle*cfg.workers+w), &stop, c)
			}(w)
		}
		time.Sleep(slice)
		if cycle < kills {
			// Power cut mid-workload: in-flight commits fail, acked
			// commits must survive recovery whole.
			crash()
			c.infra.Add(1)
			log.Printf("cycle %d: crashed the log mid-workload", cycle)
		}
		stop.Store(true)
		wg.Wait()
		if cycle == kills {
			// Clean finish: verify before closing too. (The last epoch's
			// history drains in the soak-level final check.)
			if sum := sweepSum(store, cfg); sum != total {
				log.Fatalf("final sum = %d, want %d", sum, total)
			}
		} else {
			// The next cycle recovers and re-stamps; close this
			// incarnation's history epoch while the workers are down.
			checkEpoch(chk, fmt.Sprintf("cycle %d", cycle), log.Fatalf)
		}
		cleanup()
	}
	if cfg.walDir != "" {
		// One last recovery pass proves the close/crash tail replays clean.
		store, _, cleanup := openTxnStore(cfg)
		if sum := sweepSum(store, cfg); sum != total {
			log.Fatalf("post-recovery sum = %d, want %d", sum, total)
		}
		cleanup()
		log.Printf("recovered store verified: sum %d across %d accounts", total, cfg.accounts)
	}
}

// openTxnStore builds the engine over one shard.Store for the configured
// in-process shape (-shards 0 or 1 is one shard, in memory or under -wal
// DIR) and returns it with a mid-workload crash hook and a closer.
func openTxnStore(cfg txnCfg) (store *txn.Store, crash func(), cleanup func()) {
	st, err := shard.Open(shard.Options{
		Shards: cfg.shards,
		Tree:   bwtree.DefaultOptions(),
		WALDir: cfg.walDir, SyncOnCommit: true,
	})
	if err != nil {
		log.Fatalf("open shard store: %v", err)
	}
	if st.Durable() != nil {
		rec := st.RecoveryStats()
		log.Printf("shard store open: %d shards, %d replayed, maxTxnID %d, torn=%v", st.NumShards(), rec.Replayed, rec.MaxTxnID, rec.TornTail)
	}
	crash = func() {
		if err := st.Crash(); err != nil {
			log.Fatalf("crash: %v", err)
		}
	}
	return txn.New(st), crash, func() { st.Close() }
}

// runTxnServer drives a live server over the wire; no kill schedule (the
// server is not ours to kill).
func runTxnServer(cfg txnCfg, chk *histcheck.TxnChecker, c *txnCounters) {
	ix, err := bwproto.DialIndex(cfg.server)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer ix.Close()
	seedAccountsNet(ix, cfg, chk)
	total := cfg.accounts * cfg.initial
	if sum, err := sweepSumNet(ix, cfg); err != nil || sum != total {
		log.Fatalf("sum after seed = %d (%v), want %d", sum, err, total)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := wrapTxn(ix.NewTxnSession(), chk)
			defer s.Release()
			txnWorker(s, cfg, int64(w), &stop, c)
		}(w)
	}
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()

	if sum, err := sweepSumNet(ix, cfg); err != nil || sum != total {
		log.Fatalf("final sum = %d (%v), want %d", sum, err, total)
	}
	log.Printf("server verified over the wire: sum %d across %d accounts", total, cfg.accounts)
}

// runTxnSpawn is the network-path kill/recover soak: spawn a bwserver
// child on the WAL directory, drive transfers over real sockets, SIGKILL
// the child mid-workload, restart it, and re-verify the invariant over
// the wire after every recovery. Workers reconnect through kills; a
// commit in flight at the kill has unknown outcome, which the invariant
// absorbs — a transfer conserves the sum whether or not it applied, as
// long as it applied atomically.
func runTxnSpawn(cfg txnCfg, chk *histcheck.TxnChecker, c *txnCounters) {
	if cfg.walDir == "" {
		log.Fatal("-spawn requires -wal DIR (a volatile child forgets everything the kill is meant to test)")
	}
	addr := freeAddr()
	start := func() *exec.Cmd {
		cmd := exec.Command(cfg.spawn,
			"-addr", addr,
			"-shards", strconv.Itoa(max(cfg.shards, 1)),
			"-wal", cfg.walDir)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("spawn %s: %v", cfg.spawn, err)
		}
		return cmd
	}
	waitUp := func() *bwproto.NetIndex {
		deadline := time.Now().Add(20 * time.Second)
		for {
			ix, err := bwproto.DialIndex(addr)
			if err == nil {
				return ix
			}
			if time.Now().After(deadline) {
				log.Fatalf("server at %s did not come up: %v", addr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	cmd := start()
	// log.Fatal skips defers, so every fatal path reaps the child first —
	// a leaked server would hold the WAL directory and the port.
	fatal := func(format string, a ...any) {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		log.Fatalf(format, a...)
	}
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	ix := waitUp()
	seedAccountsNet(ix, cfg, chk)
	total := cfg.accounts * cfg.initial
	if sum, err := sweepSumNet(ix, cfg); err != nil || sum != total {
		fatal("sum after seed = %d (%v), want %d", sum, err, total)
	}
	ix.Close()

	// gate pauses the workers during invariant sweeps: an unvalidated
	// 64-read sweep racing live transfers would see money in flight and
	// misreport the total (the workers' own audit transactions are the
	// online probe; sweeps are quiescent ones).
	var gate sync.RWMutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txnNetWorker(addr, cfg, int64(w), &stop, &gate, c, chk)
		}(w)
	}

	kills := max(cfg.kills, 1)
	slice := cfg.duration / time.Duration(kills+1)
	for k := 0; k < kills; k++ {
		time.Sleep(slice)
		if err := cmd.Process.Kill(); err != nil {
			fatal("kill: %v", err)
		}
		cmd.Wait()
		c.infra.Add(1)
		log.Printf("kill %d/%d: SIGKILLed the server mid-workload", k+1, kills)
		// Pause the workers at their next op boundary BEFORE restarting:
		// with the server dead and the gate held, the recorded history is
		// frozen at exactly the old incarnation's commits, so the epoch
		// can be checked and drained before any post-recovery commit
		// (whose re-stamped versions would alias the old epoch's) lands.
		gate.Lock()
		checkEpoch(chk, fmt.Sprintf("kill %d", k+1), fatal)
		cmd = start()
		ix = waitUp()
		// Invariant re-verified over the wire immediately after every
		// recovery, with the workers still paused.
		sum, err := sweepSumNet(ix, cfg)
		gate.Unlock()
		if err != nil {
			fatal("kill %d: post-recovery sweep: %v", k+1, err)
		}
		if sum != total {
			fatal("kill %d: post-recovery sum = %d, want %d (torn commit survived)", k+1, sum, total)
		}
		log.Printf("kill %d/%d: recovered, sum verified over the wire", k+1, kills)
		ix.Close()
	}
	time.Sleep(slice)
	stop.Store(true)
	wg.Wait()

	ix = waitUp()
	defer ix.Close()
	if sum, err := sweepSumNet(ix, cfg); err != nil || sum != total {
		fatal("final sum = %d (%v), want %d", sum, err, total)
	}
	log.Printf("spawned server survived %d kills: sum %d across %d accounts", kills, total, cfg.accounts)
}

// txnWorker runs transfers (and periodic full-ledger audits) until
// stopped. Infrastructure errors end the worker: in the crash shapes
// they mean the log is gone and the phase is over.
func txnWorker(s index.TxnSession, cfg txnCfg, seed int64, stop *atomic.Bool, c *txnCounters) {
	rng := rand.New(rand.NewSource(cfg.seed ^ (seed+1)*0x7E3779B97F4A7C15))
	for i := 0; !stop.Load(); i++ {
		var err error
		if i%256 == 255 {
			err = auditOnce(s, cfg, c)
		} else {
			err = transferOnce(s, rng, cfg, c)
		}
		if err != nil {
			if !stop.Load() {
				c.infra.Add(1)
			}
			return
		}
	}
}

// txnNetWorker is txnWorker for the spawn shape: it owns its connection
// and re-dials through server kills instead of giving up.
func txnNetWorker(addr string, cfg txnCfg, seed int64, stop *atomic.Bool, gate *sync.RWMutex, c *txnCounters, chk *histcheck.TxnChecker) {
	rng := rand.New(rand.NewSource(cfg.seed ^ (seed+1)*0x7E3779B97F4A7C15))
	var ix *bwproto.NetIndex
	var s index.TxnSession
	release := func() {
		if s != nil {
			s.Release()
			s = nil
		}
		if ix != nil {
			ix.Close()
			ix = nil
		}
	}
	defer release()
	for i := 0; !stop.Load(); i++ {
		gate.RLock()
		if s == nil {
			var err error
			ix, err = bwproto.DialIndex(addr)
			if err != nil {
				gate.RUnlock()
				time.Sleep(25 * time.Millisecond)
				continue
			}
			s = wrapTxn(ix.NewTxnSession(), chk)
		}
		var err error
		if i%256 == 255 {
			err = auditOnce(s, cfg, c)
		} else {
			err = transferOnce(s, rng, cfg, c)
		}
		gate.RUnlock()
		if err != nil {
			// The server died under us (or is dying); the in-flight
			// commit's outcome is unknown. Drop the connection and
			// reconnect — atomicity is verified by the sweeps.
			c.infra.Add(1)
			release()
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// transferOnce moves a random amount between two random accounts.
func transferOnce(s index.TxnSession, rng *rand.Rand, cfg txnCfg, c *txnCounters) error {
	from := uint64(rng.Int63n(int64(cfg.accounts)))
	to := uint64(rng.Int63n(int64(cfg.accounts)))
	if from == to {
		return nil
	}
	fk, tk := acctKey(from), acctKey(to)
	fv, fver, ok1, err1 := s.GetVersion(fk)
	tv, tver, ok2, err2 := s.GetVersion(tk)
	if err1 != nil {
		return err1
	}
	if err2 != nil {
		return err2
	}
	if !ok1 || !ok2 {
		return fmt.Errorf("account missing: %d=%v %d=%v", from, ok1, to, ok2)
	}
	amount := 1 + uint64(rng.Int63n(int64(cfg.initial/10+1)))
	if fv < amount {
		return nil
	}
	res, err := s.CommitTxn(
		[]index.TxnRead{{Key: fk, Ver: fver}, {Key: tk, Ver: tver}},
		[]index.TxnWrite{
			{Op: index.TxnPut, Key: fk, Value: fv - amount},
			{Op: index.TxnPut, Key: tk, Value: tv + amount},
		},
	)
	if err != nil {
		return err
	}
	if res.Status == index.TxnCommitted {
		c.commits.Add(1)
	} else {
		c.conflicts.Add(1)
	}
	return nil
}

// auditOnce commits a read-only transaction over the whole ledger. A
// committed audit passed OCC validation, so the versions it read
// coexisted at the commit point — the sum must be exact even while
// transfers race.
func auditOnce(s index.TxnSession, cfg txnCfg, c *txnCounters) error {
	reads := make([]index.TxnRead, 0, cfg.accounts)
	var sum uint64
	for i := uint64(0); i < cfg.accounts; i++ {
		k := acctKey(i)
		v, ver, found, err := s.GetVersion(k)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("audit: account %d missing", i)
		}
		sum += v
		reads = append(reads, index.TxnRead{Key: k, Ver: ver})
	}
	res, err := s.CommitTxn(reads, nil)
	if err != nil {
		return err
	}
	if res.Status != index.TxnCommitted {
		c.conflicts.Add(1)
		return nil // racing transfers invalidated the snapshot; fine
	}
	c.commits.Add(1)
	c.audits.Add(1)
	if want := cfg.accounts * cfg.initial; sum != want {
		log.Fatalf("AUDIT FAILED: serializable snapshot sums to %d, want %d", sum, want)
	}
	return nil
}

// seedAccounts populates the ledger through one transaction if account 0
// is absent (a recovered store keeps its balances).
func seedAccounts(store *txn.Store, cfg txnCfg, chk *histcheck.TxnChecker) {
	s := wrapTxn(store.NewSession(), chk)
	defer s.Release()
	seedThrough(s, cfg)
}

func seedAccountsNet(ix *bwproto.NetIndex, cfg txnCfg, chk *histcheck.TxnChecker) {
	s := wrapTxn(ix.NewTxnSession(), chk)
	defer s.Release()
	seedThrough(s, cfg)
}

func seedThrough(s index.TxnSession, cfg txnCfg) {
	if _, _, found, err := s.GetVersion(acctKey(0)); err != nil {
		log.Fatalf("seed probe: %v", err)
	} else if found {
		return
	}
	writes := make([]index.TxnWrite, 0, cfg.accounts)
	reads := make([]index.TxnRead, 0, cfg.accounts)
	for i := uint64(0); i < cfg.accounts; i++ {
		writes = append(writes, index.TxnWrite{Op: index.TxnPut, Key: acctKey(i), Value: cfg.initial})
		reads = append(reads, index.TxnRead{Key: acctKey(i), Ver: 0})
	}
	res, err := s.CommitTxn(reads, writes)
	if err != nil || res.Status != index.TxnCommitted {
		log.Fatalf("seed commit: %v %v", res.Status, err)
	}
	log.Printf("seeded %d accounts × %d", cfg.accounts, cfg.initial)
}

// sweepSum re-reads every account through a fresh session (quiescent
// callers only).
func sweepSum(store *txn.Store, cfg txnCfg) uint64 {
	s := store.NewSession()
	defer s.Release()
	sum, err := sweepThrough(s, cfg)
	if err != nil {
		log.Fatalf("sweep: %v", err)
	}
	return sum
}

func sweepSumNet(ix *bwproto.NetIndex, cfg txnCfg) (uint64, error) {
	s := ix.NewTxnSession()
	defer s.Release()
	return sweepThrough(s, cfg)
}

func sweepThrough(s index.TxnSession, cfg txnCfg) (uint64, error) {
	var sum uint64
	for i := uint64(0); i < cfg.accounts; i++ {
		v, _, found, err := s.GetVersion(acctKey(i))
		if err != nil {
			return 0, fmt.Errorf("account %d: %w", i, err)
		}
		if !found {
			return 0, fmt.Errorf("account %d missing", i)
		}
		sum += v
	}
	return sum, nil
}

// wrapTxn attaches the serializability recorder when -check is on.
func wrapTxn(s index.TxnSession, chk *histcheck.TxnChecker) index.TxnSession {
	if chk == nil {
		return s
	}
	return chk.Wrap(s)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
