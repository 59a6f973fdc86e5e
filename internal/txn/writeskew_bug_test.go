//go:build txnbug

package txn

import (
	"sync"
	"testing"

	"repro/internal/histcheck"
	"repro/internal/index"
)

// TestWriteSkewEscapesAndCheckerCatches is the serializability gate's
// red self-test (build with -tags txnbug). The seeded bug skips the
// read-stripe try-locks during validation, reopening the classic OCC
// write-skew window: two transactions read a two-account invariant,
// each writes the account the other one read, and both pass validation
// because neither's version recheck sees the other's (not yet applied)
// write. The deterministic interleaving is forced with validateBarrier:
// neither commit may apply until both have validated.
//
// The test then proves the external checker catches what the engine
// missed: the recorded history must contain a serialization-graph
// cycle. A checker that stays green here would be vacuous.
func TestWriteSkewEscapesAndCheckerCatches(t *testing.T) {
	if !bugSkipReadLocks {
		t.Fatal("built without the txnbug tag?")
	}
	ss := openStore(t, 1, "")
	defer ss.Close()
	st := New(ss)
	chk := histcheck.NewTxnChecker()

	// Two accounts on different stripes (same stripe would serialize the
	// two commits and close the window by WW ordering alone).
	x := []byte("acct-x")
	y := []byte("acct-y")
	for i := 0; st.stripeOf(x) == st.stripeOf(y); i++ {
		y = append(y[:6], byte('0'+i%10), byte('0'+i/10))
	}

	// Invariant: x + y >= 0. Seed both with 50; each transaction
	// withdraws 80 from one account after checking the combined balance
	// covers it — serializable executions allow at most one withdrawal.
	seed := chk.Wrap(st.NewSession())
	res, err := seed.CommitTxn(nil, []index.TxnWrite{
		{Op: index.TxnPut, Key: x, Value: 50},
		{Op: index.TxnPut, Key: y, Value: 50},
	})
	if err != nil || res.Status != index.TxnCommitted {
		t.Fatalf("seed: %v %v", res.Status, err)
	}
	seed.Release()

	barrier := make(chan struct{})
	var arrived sync.Once
	var n int
	var mu sync.Mutex
	validateBarrier = func() {
		mu.Lock()
		n++
		if n == 2 {
			arrived.Do(func() { close(barrier) })
		}
		mu.Unlock()
		<-barrier
	}
	defer func() { validateBarrier = nil }()

	withdraw := func(target []byte) index.TxnStatus {
		s := chk.Wrap(st.NewSession())
		defer s.Release()
		xv, xver, _, _ := s.GetVersion(x)
		yv, yver, _, _ := s.GetVersion(y)
		if int64(xv)+int64(yv)-80 < 0 {
			t.Error("seeded balance cannot cover the withdrawal")
			return index.TxnConflict
		}
		var cur uint64
		if string(target) == string(x) {
			cur = xv
		} else {
			cur = yv
		}
		res, err := s.CommitTxn(
			[]index.TxnRead{{Key: x, Ver: xver}, {Key: y, Ver: yver}},
			[]index.TxnWrite{{Op: index.TxnPut, Key: target, Value: cur - 80}},
		)
		if err != nil {
			t.Errorf("commit: %v", err)
			return index.TxnConflict
		}
		return res.Status
	}

	var wg sync.WaitGroup
	results := make([]index.TxnStatus, 2)
	for i, target := range [][]byte{x, y} {
		wg.Add(1)
		go func(i int, target []byte) {
			defer wg.Done()
			results[i] = withdraw(target)
		}(i, target)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if results[0] != index.TxnCommitted || results[1] != index.TxnCommitted {
		t.Fatalf("bug did not fire: statuses %v %v (expected both to commit)", results[0], results[1])
	}

	// The engine let a non-serializable execution through: the combined
	// balance went negative (uint64 wraparound on one account).
	s := st.NewSession()
	xv, _, _, _ := s.GetVersion(x)
	yv, _, _, _ := s.GetVersion(y)
	s.Release()
	if int64(xv)+int64(yv) >= 0 && xv < 1<<62 && yv < 1<<62 {
		t.Fatalf("invariant survived (x=%d y=%d); write skew did not manifest", xv, yv)
	}

	violations := chk.Check()
	found := false
	for _, v := range violations {
		if v.Kind == "txn-cycle" {
			found = true
			t.Logf("checker diagnosis: %s", v.Msg)
		}
	}
	if !found {
		t.Fatalf("checker missed the write skew; violations: %v", violations)
	}
}
