package txn_test

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/bwtree"
	"repro/internal/bwproto"
	"repro/internal/histcheck"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/txn"
)

// The bank-transfer soak: accounts start with equal balances and workers
// move random amounts between random pairs through multi-key commits, so
// the total never changes however transfers interleave, conflict, crash
// or recover; a torn commit, a lost write or a half-applied log record
// shifts it. Three probes check it at different trust levels:
//
//  1. A worker's first transaction and every 256th after it is a
//     read-only audit of every account. A committed audit passed validation, so its sum is exact
//     while transfers run.
//  2. A quiescent sweep re-reads all accounts after every open and
//     recovery and at the end.
//  3. Every committed transaction is recorded, and each store
//     incarnation's history must be conflict-serializable
//     (histcheck.CheckSerial). A crash restarts the version counter, so
//     each incarnation is checked and drained at its recovery boundary.
//
// A run with kills crashes the store that many times mid-workload, then
// closes it cleanly and recovers it once more.

// soakSettings reads the -soak.seed, -soak.dur and -soak.workers flags.
var soakSettings = histcheck.SoakFlags()

const (
	bankAccounts = 64
	bankInitial  = 1000
	// bankServerEnv, set to "addr,dir", makes the test binary the server
	// of a spawned soak: the store and wire server bwserver runs with
	// -shards 4 -wal dir, serving addr until it is killed.
	bankServerEnv = "TXN_BANK_SERVER"
)

func TestMain(m *testing.M) {
	if spec := os.Getenv(bankServerEnv); spec != "" {
		addr, dir, _ := strings.Cut(spec, ",")
		st, err := shard.Open(shard.Options{Shards: 4, Router: shard.NewHashRouter(4),
			Tree: bwtree.DefaultOptions(), WALDir: dir, SyncOnCommit: true})
		if err == nil {
			err = bwproto.NewServer(st).Listen(addr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		select {}
	}
	os.Exit(m.Run())
}

// bankRun is one shape of the soak.
type bankRun struct {
	shards  int
	durable bool
	kills   int  // crash and recovery cycles
	wire    bool // serve the store over sockets from this process
	spawn   bool // serve the store from a spawned test binary, killed with SIGKILL
}

// bankStore is one incarnation of the soak's store.
type bankStore struct {
	session func() (index.TxnSession, error)
	kill    func() // a power cut, or SIGKILL
	close   func()
	txs     *txn.Store // the engine, unless spawned
}

// connTxn is a wire connection as a transactional session.
type connTxn struct{ *bwproto.Conn }

func (c connTxn) Release() { c.Close() }

// dialTxn opens sessions as connections to addr.
func dialTxn(addr string) func() (index.TxnSession, error) {
	return func() (index.TxnSession, error) {
		c, err := bwproto.Dial(addr)
		return connTxn{c}, err
	}
}

func acct(i uint64) []byte { return histcheck.Key(i) }

// open opens the shape's store over dir, recovering what it holds.
func (r bankRun) open(t *testing.T, dir string, cycle int) bankStore {
	if r.spawn {
		return spawnBank(t, dir)
	}
	ss, err := shard.Open(shard.Options{Shards: r.shards, Tree: bwtree.DefaultOptions(), WALDir: dir, SyncOnCommit: r.durable})
	if err != nil {
		t.Fatal(err)
	}
	if cycle > 0 && r.shards > 1 && ss.RecoveryStats().MaxTxnID == 0 {
		t.Errorf("cycle %d: recovered MaxTxnID is zero after transactional load", cycle)
	}
	bs := bankStore{
		kill: func() {
			if err := ss.Crash(); err != nil {
				t.Error(err)
			}
		},
		close: func() {
			if err := ss.Close(); err != nil {
				t.Error(err)
			}
		},
	}
	if !r.wire {
		st := txn.New(ss)
		bs.txs, bs.session = st, func() (index.TxnSession, error) { return st.NewSession(), nil }
		return bs
	}
	sv := bwproto.NewServer(ss)
	if err := sv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	closeStore := bs.close
	bs.txs, bs.session = sv.Txn(), dialTxn(sv.Addr())
	bs.close = func() { sv.Shutdown(2 * time.Second); closeStore() }
	return bs
}

// spawnBank serves a four-shard durable store over dir from a spawned
// test binary, killed with SIGKILL.
func spawnBank(t *testing.T, dir string) bankStore {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), bankServerEnv+"="+addr+","+dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := func() { cmd.Process.Kill(); cmd.Wait() }
	t.Cleanup(stop)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if c, err := bwproto.Dial(addr); err == nil {
			c.Close()
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("spawned server at %s did not come up: %v", addr, err)
		}
	}
	return bankStore{session: dialTxn(addr), kill: stop, close: stop}
}

// soak runs the bank-transfer soak in shape r.
func (r bankRun) soak(t *testing.T) {
	seed, dur, workers := soakSettings(t, time.Second, 8)
	dir := ""
	if r.durable {
		dir = t.TempDir()
	}
	chk := histcheck.NewTxnChecker()
	var commits, audits, conflicts atomic.Uint64
	for cycle := 0; ; cycle++ {
		st := r.open(t, dir, cycle)
		s, err := st.session()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, found, err := s.GetVersion(acct(0)); err != nil {
			t.Fatal(err)
		} else if !found {
			seedBank(t, chk.Wrap(s))
		}
		bankSweep(t, s, fmt.Sprintf("cycle %d: open", cycle))
		s.Release()
		if cycle > r.kills {
			st.close()
			break
		}

		var stop, killed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed ^ int64(cycle*workers+w+1)*0x7E3779B97F4A7C15))
				s, err := st.session()
				if err == nil {
					s = chk.Wrap(s)
					defer s.Release()
				}
				for i := 0; err == nil && !stop.Load(); i++ {
					var committed bool
					if i%256 == 0 {
						committed, err = bankAudit(t, s)
						audits.Add(b2u(committed))
					} else {
						committed, err = bankTransfer(s, rng)
					}
					commits.Add(b2u(committed))
					conflicts.Add(b2u(!committed && err == nil))
				}
				if err != nil && !killed.Load() {
					t.Errorf("worker %d: %v", w, err)
				}
			}()
		}
		time.Sleep(dur / time.Duration(r.kills+1))
		if cycle < r.kills {
			killed.Store(true)
			st.kill()
		}
		stop.Store(true)
		wg.Wait()
		if st.txs != nil && st.txs.Stats().Commits == 0 {
			t.Errorf("cycle %d: the engine counted no commits", cycle)
		}
		if cycle == r.kills {
			s, err := st.session()
			if err != nil {
				t.Fatal(err)
			}
			bankSweep(t, s, "final")
			s.Release()
		}
		n, violations := chk.CheckReset()
		for _, v := range violations[:min(len(violations), 20)] {
			t.Errorf("cycle %d: %v", cycle, v)
		}
		t.Logf("cycle %d: %d committed transactions checked", cycle, n)
		st.close()
		if t.Failed() || !r.durable {
			break
		}
	}
	t.Logf("%d commits (%d audits), %d conflicts", commits.Load(), audits.Load(), conflicts.Load())
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// seedBank writes every account's opening balance in one transaction.
func seedBank(t *testing.T, s index.TxnSession) {
	reads := make([]index.TxnRead, bankAccounts)
	writes := make([]index.TxnWrite, bankAccounts)
	for i := range writes {
		reads[i] = index.TxnRead{Key: acct(uint64(i))}
		writes[i] = index.TxnWrite{Op: index.TxnPut, Key: acct(uint64(i)), Value: bankInitial}
	}
	if res, err := s.CommitTxn(reads, writes); err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("seed commit: %v %v", res.Status, err)
	}
}

// bankSweep re-reads every account of a quiescent store and checks the
// total.
func bankSweep(t *testing.T, s index.TxnSession, what string) {
	var sum uint64
	for i := uint64(0); i < bankAccounts; i++ {
		v, _, found, err := s.GetVersion(acct(i))
		if err != nil || !found {
			t.Fatalf("%s: account %d: found %v, %v", what, i, found, err)
		}
		sum += v
	}
	if sum != bankAccounts*bankInitial {
		t.Fatalf("%s: balances sum to %d, want %d", what, sum, bankAccounts*bankInitial)
	}
}

// bankTransfer moves a random amount between two random accounts
// through RunTxn, which retries a conflict twice. A transfer the balance
// cannot cover commits as a read-only transaction.
func bankTransfer(s index.TxnSession, rng *rand.Rand) (bool, error) {
	from, to := acct(uint64(rng.Intn(bankAccounts))), acct(uint64(rng.Intn(bankAccounts)))
	if string(from) == string(to) {
		return false, nil
	}
	amount := 1 + uint64(rng.Intn(bankInitial/10+1))
	res, err := txn.RunTxn(s, 3, func(tx *txn.Tx) error {
		fv, ok1, err := tx.Get(from)
		if err != nil {
			return err
		}
		tv, ok2, err := tx.Get(to)
		if err != nil || !ok1 || !ok2 {
			return fmt.Errorf("transfer read: %v %v %v", ok1, ok2, err)
		}
		if fv >= amount {
			tx.Put(from, fv-amount)
			tx.Put(to, tv+amount)
		}
		return nil
	})
	return res.Status == index.TxnCommitted, err
}

// bankAudit commits a read-only transaction over every account; if it
// commits, the versions it read coexisted, so they sum exactly.
func bankAudit(t *testing.T, s index.TxnSession) (bool, error) {
	reads := make([]index.TxnRead, bankAccounts)
	var sum uint64
	for i := range reads {
		v, ver, found, err := s.GetVersion(acct(uint64(i)))
		if err != nil || !found {
			return false, fmt.Errorf("audit: account %d: found %v, %v", i, found, err)
		}
		sum += v
		reads[i] = index.TxnRead{Key: acct(uint64(i)), Ver: ver}
	}
	res, err := s.CommitTxn(reads, nil)
	if committed := err == nil && res.Status == index.TxnCommitted; !committed || sum == bankAccounts*bankInitial {
		return committed, err
	}
	t.Errorf("committed audit sums to %d, want %d", sum, bankAccounts*bankInitial)
	return true, nil
}

// TestTxnBankPlainTree runs the soak on one in-memory shard.
func TestTxnBankPlainTree(t *testing.T) { bankRun{shards: 1}.soak(t) }

// TestTxnBankDurable runs the soak on one durable shard through two
// crashes.
func TestTxnBankDurable(t *testing.T) { bankRun{shards: 1, durable: true, kills: 2}.soak(t) }

// TestTxnBankShardCrash runs the soak on four durable shards over one
// log through two crashes: a commit spanning shards is one record, so it
// applies on every shard or on none.
func TestTxnBankShardCrash(t *testing.T) { bankRun{shards: 4, durable: true, kills: 2}.soak(t) }

// TestTxnBankOverWire runs the soak over real sockets against a
// four-shard server in this process, so a data race in the server's
// concurrent commits fails it under -race.
func TestTxnBankOverWire(t *testing.T) { bankRun{shards: 4, wire: true}.soak(t) }

// TestTxnBankOverSocket runs the soak over real sockets against a
// spawned four-shard durable server, killed with SIGKILL and restarted
// twice.
func TestTxnBankOverSocket(t *testing.T) {
	bankRun{shards: 4, durable: true, kills: 2, spawn: true}.soak(t)
}
