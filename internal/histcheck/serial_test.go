package histcheck

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/bwtree"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/txn"
)

// newTxnStore builds the OCC engine over a fresh one-shard in-memory
// store of DefaultOptions trees, closed when the test ends.
func newTxnStore(t *testing.T) *txn.Store {
	t.Helper()
	ss, err := shard.Open(shard.Options{Tree: bwtree.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return txn.New(ss)
}

func skey(i uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return string(b[:])
}

// TestCheckSerialAcceptsChain: a sequential read-modify-write chain is
// trivially serializable.
func TestCheckSerialAcceptsChain(t *testing.T) {
	var recs []TxnRecord
	for i := uint64(1); i <= 10; i++ {
		recs = append(recs, TxnRecord{
			ID:     i,
			Reads:  []TxnKV{{Key: skey(0), Ver: i - 1}},
			Writes: []TxnKV{{Key: skey(0), Ver: i}},
		})
	}
	if v := CheckSerial(recs); len(v) != 0 {
		t.Fatalf("chain flagged: %v", v)
	}
}

// TestCheckSerialAcceptsDisjoint: transactions over disjoint keys never
// conflict.
func TestCheckSerialAcceptsDisjoint(t *testing.T) {
	var recs []TxnRecord
	for i := uint64(1); i <= 20; i++ {
		recs = append(recs, TxnRecord{
			ID:     i,
			Reads:  []TxnKV{{Key: skey(i), Ver: 0}},
			Writes: []TxnKV{{Key: skey(i), Ver: i}},
		})
	}
	if v := CheckSerial(recs); len(v) != 0 {
		t.Fatalf("disjoint txns flagged: %v", v)
	}
}

// TestCheckSerialCatchesWriteSkew: the canonical non-serializable
// anomaly version validation alone cannot see — two transactions each
// read both keys and write the other one. The RW anti-dependencies form
// a two-cycle.
func TestCheckSerialCatchesWriteSkew(t *testing.T) {
	x, y := skey(1), skey(2)
	recs := []TxnRecord{
		// Initial state: T1 installs x@1, y@2.
		{ID: 1, Writes: []TxnKV{{x, 1}, {y, 2}}},
		// T2 and T3 both read the initial versions; each overwrites one key.
		{ID: 2, Reads: []TxnKV{{x, 1}, {y, 2}}, Writes: []TxnKV{{x, 3}}},
		{ID: 3, Reads: []TxnKV{{x, 1}, {y, 2}}, Writes: []TxnKV{{y, 4}}},
	}
	v := CheckSerial(recs)
	if len(v) != 1 || v[0].Kind != "txn-cycle" {
		t.Fatalf("write skew not flagged as one txn-cycle: %v", v)
	}
	t.Logf("diagnosis: %s", v[0].Msg)
}

// TestCheckSerialCatchesLostUpdate: two transactions both read x@1 and
// both commit writes to x — WW orders them one way, the loser's stale
// read points the other way.
func TestCheckSerialCatchesLostUpdate(t *testing.T) {
	x := skey(1)
	recs := []TxnRecord{
		{ID: 1, Writes: []TxnKV{{x, 1}}},
		{ID: 2, Reads: []TxnKV{{x, 1}}, Writes: []TxnKV{{x, 2}}},
		{ID: 3, Reads: []TxnKV{{x, 1}}, Writes: []TxnKV{{x, 3}}},
	}
	v := CheckSerial(recs)
	if len(v) != 1 || v[0].Kind != "txn-cycle" {
		t.Fatalf("lost update not flagged as one txn-cycle: %v", v)
	}
}

// TestCheckSerialCatchesStampReuse: two committed writes installing the
// same version on one key means atomicity broke upstream.
func TestCheckSerialCatchesStampReuse(t *testing.T) {
	recs := []TxnRecord{
		{ID: 1, Writes: []TxnKV{{skey(1), 7}}},
		{ID: 2, Writes: []TxnKV{{skey(1), 7}}},
	}
	v := CheckSerial(recs)
	if len(v) != 1 || v[0].Kind != "txn-duplicate-write-version" {
		t.Fatalf("stamp reuse not flagged: %v", v)
	}
}

// TestTxnCheckerGreen runs a concurrent bank workload through the real
// OCC engine with the recorder attached: the checked history must be
// serializable and the money conserved.
func TestTxnCheckerGreen(t *testing.T) {
	ts := newTxnStore(t)
	chk := NewTxnChecker()

	const accounts = 32
	const initial = 1000
	{
		s := chk.Wrap(ts.NewSession())
		var writes []index.TxnWrite
		for i := uint64(0); i < accounts; i++ {
			writes = append(writes, index.TxnWrite{Op: index.TxnPut, Key: []byte(skey(i)), Value: initial})
		}
		if res, err := s.CommitTxn(nil, writes); err != nil || res.Status != index.TxnCommitted {
			t.Fatalf("seed: %v %v", res.Status, err)
		}
		s.Release()
	}

	workers, transfers := 8, 300
	if testing.Short() {
		workers, transfers = 4, 80
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := chk.Wrap(ts.NewSession())
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from := []byte(skey(uint64(rng.Intn(accounts))))
				to := []byte(skey(uint64(rng.Intn(accounts))))
				if string(from) == string(to) {
					continue
				}
				fv, fver, _, _ := s.GetVersion(from)
				tv, tver, _, _ := s.GetVersion(to)
				amount := uint64(rng.Intn(10))
				if fv < amount {
					continue
				}
				if _, err := s.CommitTxn(
					[]index.TxnRead{{Key: from, Ver: fver}, {Key: to, Ver: tver}},
					[]index.TxnWrite{
						{Op: index.TxnPut, Key: from, Value: fv - amount},
						{Op: index.TxnPut, Key: to, Value: tv + amount},
					},
				); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var sum uint64
	s := ts.NewSession()
	for i := uint64(0); i < accounts; i++ {
		v, _, found, _ := s.GetVersion([]byte(skey(i)))
		if !found {
			t.Fatalf("account %d missing", i)
		}
		sum += v
	}
	s.Release()
	if sum != accounts*initial {
		t.Fatalf("bank sum = %d, want %d", sum, accounts*initial)
	}

	if v := chk.Check(); len(v) != 0 {
		t.Fatalf("serializable engine produced violations: %v", v)
	}
	t.Logf("checked %d committed transactions: serializable", len(chk.History()))
}

// TestTxnCheckerCheckReset covers the epoch boundary: CheckReset verifies
// and drains, so records from different store incarnations (whose version
// stamps alias numerically) never meet in one graph.
func TestTxnCheckerCheckReset(t *testing.T) {
	chk := NewTxnChecker()
	commit := func(ts *txn.Store, key string, val uint64) {
		s := chk.Wrap(ts.NewSession())
		defer s.Release()
		_, ver, _, _ := s.GetVersion([]byte(key))
		res, err := s.CommitTxn(
			[]index.TxnRead{{Key: []byte(key), Ver: ver}},
			[]index.TxnWrite{{Op: index.TxnPut, Key: []byte(key), Value: val}})
		if err != nil || res.Status != index.TxnCommitted {
			t.Fatalf("commit: %v %v", res.Status, err)
		}
	}

	// Incarnation 1: two commits, then drain at the "crash".
	ts1 := newTxnStore(t)
	commit(ts1, "x", 1)
	commit(ts1, "y", 2)
	n, violations := chk.CheckReset()
	if n != 2 || len(violations) != 0 {
		t.Fatalf("epoch 1: drained %d records, violations %v", n, violations)
	}

	// Incarnation 2: a fresh tree restarts the stamp counter; its commits
	// reuse the same version numbers on the same keys. Segmented checking
	// must stay green where a merged history would report stamp reuse.
	ts2 := newTxnStore(t)
	commit(ts2, "x", 3)
	if len(chk.History()) != 1 {
		t.Fatalf("history after reset holds %d records, want 1", len(chk.History()))
	}
	n, violations = chk.CheckReset()
	if n != 1 || len(violations) != 0 {
		t.Fatalf("epoch 2: drained %d records, violations %v", n, violations)
	}
	if n, _ := chk.CheckReset(); n != 0 {
		t.Fatalf("third drain saw %d records, want 0", n)
	}
}
