package bwproto

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/bwtree"
	"repro/internal/histcheck"
	"repro/internal/index"
)

// soakSettings reads the -soak.seed, -soak.dur and -soak.workers flags.
var soakSettings = histcheck.SoakFlags()

// connSession drives the soak oracle through one raw connection.
type connSession struct {
	*Conn
	t *testing.T
}

func (c connSession) Lookup(k []byte, out []uint64) []uint64 {
	out, err := c.Conn.Lookup(k, out)
	if err != nil {
		c.t.Error(err)
	}
	return out
}

func (c connSession) Scan(start []byte, n int, visit func([]byte, uint64) bool) int {
	got, err := c.Conn.Scan(start, n, visit)
	if err != nil {
		c.t.Error(err)
	}
	return got
}

// sweepOverWire checks the quiescent server's whole keyspace, read by one
// scan, against the soak's mirrors.
func sweepOverWire(t *testing.T, soak *histcheck.Soak, addr string) {
	c := dialConn(t, addr)
	if err := soak.Sweep(func(visit func([]byte, uint64)) {
		if _, err := c.Scan(nil, 1<<40, func(k []byte, v uint64) bool { visit(k, v); return true }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Error(err)
	}
}

// TestConnectionChurn cycles connections through a four-shard server
// under concurrent load. In "shared", 50 workers dial 20 times each and
// contend on 4096 shared keys of small trees, so every dial does real
// work next to dozens of live peers and splits and merges churn beneath
// them. In "owned", -soak.workers connections (50 here, 1000 in CI) run
// the ownership oracle's mix over 64 keys each for -soak.dur, every
// worker re-dialing after 50 operations; the store must then hold exactly
// the mirrors' union. A worker runs hundreds of operations, so its writes
// revisit its keys and deletes and updates of present keys are checked,
// not only inserts of absent ones. Each must end with no malformed frame, every closed
// connection out of the registry and a valid store. Run under -race it
// doubles as the serving tier's data-race probe.
func TestConnectionChurn(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		sv, addr := startServer(t, 4)

		workers, dials := 50, 20
		if testing.Short() {
			workers, dials = 20, 10
		}
		totalConns := workers * dials
		var peak atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var key [8]byte
				for d := 0; d < dials; d++ {
					c, err := Dial(addr)
					if err != nil {
						t.Errorf("worker %d dial %d: %v", w, d, err)
						return
					}
					if live := sv.Stats().ConnsLive; live > peak.Load() {
						peak.Store(live)
					}
					for i := 0; i < 50; i++ {
						binary.BigEndian.PutUint64(key[:], rng.Uint64()%4096)
						var opErr error
						switch rng.Intn(4) {
						case 0:
							_, opErr = c.Insert(key[:], uint64(w))
						case 1:
							_, opErr = c.Delete(key[:], uint64(w))
						case 2:
							_, opErr = c.Lookup(key[:], nil)
						default:
							_, opErr = c.Scan(key[:], 10, func([]byte, uint64) bool { return true })
						}
						if opErr != nil {
							t.Errorf("worker %d op: %v", w, opErr)
							c.Close()
							return
						}
					}
					c.Close()
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		s := sv.Stats()
		if s.ConnsTotal < uint64(totalConns) {
			t.Errorf("ConnsTotal = %d, want >= %d", s.ConnsTotal, totalConns)
		}
		if s.ProtoErrors != 0 {
			t.Errorf("ProtoErrors = %d, want 0", s.ProtoErrors)
		}
		t.Logf("churned %d connections (peak %d live), %d frames", s.ConnsTotal, peak.Load(), s.Frames)

		// Every closed connection leaves the registry.
		deadline := time.Now().Add(10 * time.Second)
		for sv.Stats().ConnsLive > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still registered after close", sv.Stats().ConnsLive)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := sv.Store().Validate(); err != nil {
			t.Errorf("store validate after churn: %v", err)
		}
	})
	t.Run("owned", func(t *testing.T) {
		dur, workers := time.Second, 50
		if testing.Short() {
			dur, workers = 300*time.Millisecond, 20
		}
		seed, dur, workers := soakSettings(t, dur, workers)
		sv, addr := startServerWith(t, 4, bwtree.DefaultOptions())
		soak := histcheck.NewSoak(workers, 64)
		var dials atomic.Uint64
		err := soak.Run(dur, 30*time.Second, func(w int) error {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for !soak.Stop.Load() {
				c, err := Dial(addr)
				if err != nil {
					return err
				}
				dials.Add(1)
				err = soak.Work(w, connSession{c, t}, rng, 50)
				c.Close()
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sweepOverWire(t, soak, addr)

		s := sv.Stats()
		if n := dials.Load(); n < uint64(workers) || s.ConnsTotal != n+1 { // the sweep dialed once more
			t.Errorf("%d dials by %d workers, ConnsTotal = %d", n, workers, s.ConnsTotal)
		}
		if s.ProtoErrors != 0 {
			t.Errorf("ProtoErrors = %d, want 0", s.ProtoErrors)
		}
		t.Logf("churned %d connections, %d frames", s.ConnsTotal, s.Frames)
		deadline := time.Now().Add(10 * time.Second)
		for sv.Stats().ConnsLive > 1 { // the sweep's connection is still open
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still registered after close", sv.Stats().ConnsLive)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := sv.Store().Validate(); err != nil {
			t.Errorf("store validate after churn: %v", err)
		}
	})
}

// TestHistcheckOverWire runs the history checker against a live server
// through the NetIndex adapter, so the recorder that gates in-process
// runs verifies client-visible linearizability over real sockets. In
// "shared", 8 sessions run a mix of every operation over 512 shared keys
// of small trees on eight shards. In "owned", -soak.workers sessions (8)
// run the ownership oracle's mix over 4096 keys each against an
// eight-shard server of default trees, until 120000 operations or
// -soak.dur have passed; each outcome must also match its worker's
// mirror, and the store the mirrors' union.
func TestHistcheckOverWire(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		_, addr := startServer(t, 8)
		ix, err := DialIndex(addr)
		if err != nil {
			t.Fatal(err)
		}
		checked := histcheck.Wrap(ix, false)
		defer checked.Close()

		workers, opsPer := 8, 3000
		if testing.Short() {
			workers, opsPer = 4, 800
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := index.AsBatch(checked.NewSession())
				defer sess.Release()
				rng := rand.New(rand.NewSource(int64(w) * 7919))
				var key [8]byte
				for i := 0; i < opsPer; i++ {
					binary.BigEndian.PutUint64(key[:], rng.Uint64()%512)
					switch rng.Intn(10) {
					case 0, 1, 2:
						sess.Insert(key[:], uint64(w*opsPer+i))
					case 3:
						sess.Delete(key[:], uint64(rng.Intn(workers*opsPer)))
					case 4:
						sess.Update(key[:], uint64(w*opsPer+i))
					case 5:
						sess.Scan(key[:], 20, func([]byte, uint64) bool { return true })
					default:
						sess.Lookup(key[:], nil)
					}
				}
			}(w)
		}
		wg.Wait()

		violations := checked.Check()
		for _, v := range violations {
			t.Errorf("violation: %v", v)
		}
		if len(violations) == 0 {
			t.Logf("history clean: %d ops over the wire", len(checked.History().Ops))
		}
	})
	t.Run("owned", func(t *testing.T) {
		dur, workers, budget := time.Second, 8, 120_000
		if testing.Short() {
			dur, workers, budget = 300*time.Millisecond, 4, 24_000
		}
		seed, dur, workers := soakSettings(t, dur, workers)
		_, addr := startServerWith(t, 8, bwtree.DefaultOptions())
		ix, err := DialIndex(addr)
		if err != nil {
			t.Fatal(err)
		}
		checked := histcheck.Wrap(ix, false)
		defer checked.Close()
		soak := histcheck.NewSoak(workers, 4096)
		err = soak.Run(dur, 30*time.Second, func(w int) error {
			s := checked.NewSession()
			defer s.Release()
			return soak.Work(w, histcheck.Infallible(s), rand.New(rand.NewSource(seed+int64(w))), budget/workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		sweepOverWire(t, soak, addr)
		violations := checked.Check()
		for _, v := range violations[:min(len(violations), 20)] {
			t.Errorf("violation: %v", v)
		}
		t.Logf("%d ops over the wire, %d violations", len(checked.History().Ops), len(violations))
	})
}

// TestNetIndexBatchSession covers the adapter's batched entry points
// (windowed OpBatch frames) against direct results.
func TestNetIndexBatchSession(t *testing.T) {
	_, addr := startServer(t, 4)
	ix, err := DialIndex(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	sess, ok := ix.NewSession().(index.BatchSession)
	if !ok {
		t.Fatal("NetIndex session does not implement BatchSession")
	}
	defer sess.Release()

	const n = 1000
	keys := make([][]byte, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i))
		vals[i] = uint64(i) * 7
	}
	ok1 := sess.InsertBatch(keys, vals, nil)
	for i, got := range ok1 {
		if !got {
			t.Fatalf("InsertBatch[%d] rejected", i)
		}
	}
	// Second insert of the same keys must be rejected pairwise.
	ok2 := sess.InsertBatch(keys, vals, ok1)
	for i, got := range ok2 {
		if got {
			t.Fatalf("duplicate InsertBatch[%d] accepted", i)
		}
	}
	seen := 0
	sess.LookupBatch(keys, func(i int, got []uint64) {
		seen++
		if len(got) != 1 || got[0] != uint64(i)*7 {
			t.Fatalf("LookupBatch[%d] = %v, want [%d]", i, got, uint64(i)*7)
		}
	})
	if seen != n {
		t.Fatalf("LookupBatch visited %d keys, want %d", seen, n)
	}
	del := sess.DeleteBatch(keys[:n/2], vals[:n/2], nil)
	for i, got := range del {
		if !got {
			t.Fatalf("DeleteBatch[%d] rejected", i)
		}
	}
	if got := sess.Scan(nil, n+10, func([]byte, uint64) bool { return true }); got != n/2 {
		t.Fatalf("post-delete scan = %d pairs, want %d", got, n/2)
	}
}
