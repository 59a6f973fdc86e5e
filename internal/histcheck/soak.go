package histcheck

import (
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// Soak is the ownership oracle of the core, durable and wire soak tests.
// Worker w of n owns the keys k ≡ w (mod n) and mirrors their state, so
// each outcome of its own operations has one right answer.
type Soak struct {
	Keys    int                     // keys each worker owns
	Autopsy func(key []byte) string // describes a stuck worker's key in a stall report
	Stop    atomic.Bool             // ends every worker at its next operation

	ops     atomic.Uint64
	cur     []atomic.Uint64 // the key each worker is on
	owned   []map[uint64]uint64
	pending []*pendingOp
}

// pendingOp is a write whose worker failed before it learned the outcome.
type pendingOp struct {
	op   byte // 'I', 'U' or 'D'
	k, v uint64
}

// SoakFlags registers -soak.seed, -soak.dur and -soak.workers, once per
// test binary. Its function gives a soak's seed (default 1), duration
// and workers (0: the test's defaults) and logs them.
func SoakFlags() func(tb interface{ Logf(string, ...any) }, dur time.Duration, workers int) (int64, time.Duration, int) {
	seed := flag.Int64("soak.seed", 1, "seed of the soak tests")
	d := flag.Duration("soak.dur", 0, "duration of each soak test (0: its default)")
	nw := flag.Int("soak.workers", 0, "workers of each soak test (0: its default)")
	return func(tb interface{ Logf(string, ...any) }, dur time.Duration, workers int) (int64, time.Duration, int) {
		dur, workers = cmp.Or(*d, dur), cmp.Or(*nw, workers)
		tb.Logf("soak: -soak.seed %d -soak.dur %v -soak.workers %d", *seed, dur, workers)
		return *seed, dur, workers
	}
}

// SoakOptions is the SMO-churn geometry the tree soaks run: small
// leaves, short chains and merges on, over DefaultOptions.
func SoakOptions() core.Options {
	o := core.DefaultOptions()
	o.LeafNodeSize, o.InnerNodeSize = 32, 16
	o.LeafChainLength, o.InnerChainLength = 8, 2
	o.LeafMergeSize, o.InnerMergeSize = 8, 4
	return o
}

// TreePairs visits every pair of a quiescent tree in key order, for Sweep.
func TreePairs(tr *core.Tree) func(visit func([]byte, uint64)) {
	return func(visit func([]byte, uint64)) {
		s := tr.NewSession()
		defer s.Release()
		it := s.NewIterator()
		for it.SeekFirst(); it.Valid(); it.Next() {
			visit(it.Key(), it.Value())
		}
	}
}

// Session is what a soak worker drives. An error ends the worker, and
// the write that returned it is left pending, as a crash leaves it.
type Session interface {
	Insert(key []byte, value uint64) (bool, error)
	Delete(key []byte, value uint64) (bool, error)
	Update(key []byte, value uint64) (bool, error)
	Lookup(key []byte, out []uint64) []uint64
	Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int
}

// Infallible adapts a session whose writes cannot fail, such as a tree's
// or an index's, to Session.
func Infallible(s index.Session) Session { return infallible{s} }

type infallible struct{ index.Session }

func (s infallible) Insert(k []byte, v uint64) (bool, error) { return s.Session.Insert(k, v), nil }
func (s infallible) Delete(k []byte, v uint64) (bool, error) { return s.Session.Delete(k, v), nil }
func (s infallible) Update(k []byte, v uint64) (bool, error) { return s.Session.Update(k, v), nil }

// NewSoak returns the oracle of workers workers owning keys keys each.
func NewSoak(workers, keys int) *Soak {
	return &Soak{Keys: keys, cur: make([]atomic.Uint64, workers),
		owned: make([]map[uint64]uint64, workers), pending: make([]*pendingOp, workers)}
}

// Key encodes soak key k, 8 bytes big-endian.
func Key(k uint64) []byte { return binary.BigEndian.AppendUint64(nil, k) }

// Work runs n operations (n <= 0: until Stop) of worker w through ss:
// inserts, deletes, updates and lookups of its own keys, checked against
// its mirror, and 32-pair scans, checked for order. It returns the first
// mismatch or the session's error.
func (s *Soak) Work(w int, ss Session, rng *rand.Rand, n int) error {
	if s.owned[w] == nil {
		s.owned[w] = map[uint64]uint64{}
	}
	m, out := s.owned[w], []uint64(nil)
	for i := 0; (n <= 0 || i < n) && !s.Stop.Load(); i++ {
		s.ops.Add(1)
		k := uint64(w) + uint64(rng.Intn(s.Keys)*len(s.owned))
		s.cur[w].Store(k)
		want, had := m[k]
		p := pendingOp{k: k, v: rng.Uint64()}
		var ok bool
		var err error
		switch r := rng.Intn(6); {
		case r == 0:
			p.op = 'I'
			ok, err = ss.Insert(Key(k), p.v)
		case r == 1:
			p.op = 'D'
			ok, err = ss.Delete(Key(k), want)
		case r == 2:
			p.op = 'U'
			ok, err = ss.Update(Key(k), p.v)
		case r < 5:
			if out = ss.Lookup(Key(k), out[:0]); had != (len(out) == 1) || had && out[0] != want {
				return fmt.Errorf("worker %d: lookup of key %d got %v, want %d,%v", w, k, out, want, had)
			}
			continue
		default:
			var prev []byte
			ss.Scan(Key(k), 32, func(kk []byte, _ uint64) bool {
				if prev != nil && string(kk) <= string(prev) {
					err = fmt.Errorf("worker %d: scan from key %d visited %x after %x", w, k, kk, prev)
				}
				prev = append(prev[:0], kk...)
				return err == nil
			})
			if err != nil {
				return err
			}
			continue
		}
		if err != nil {
			s.pending[w] = &p
			return err
		}
		// An insert succeeds exactly when the key was absent, a delete or
		// an update exactly when it was present.
		if ok != (had != (p.op == 'I')) {
			return fmt.Errorf("worker %d: %c of key %d returned %v, key present: %v", w, p.op, k, ok, had)
		}
		if p.op == 'D' {
			delete(m, k)
		} else if ok {
			m[k] = p.v
		}
	}
	return nil
}

// Run runs work(w) for every worker and returns once all have returned,
// dur has passed, or no operation has completed for stall (0: never). It
// sets Stop, joins the workers and returns their errors; a stall returns
// at once, leaving the stuck workers behind.
func (s *Soak) Run(dur, stall time.Duration, work func(w int) error) error {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for w := range s.owned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := work(w); err != nil {
				s.Stop.Store(true)
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline, tick := time.After(dur), time.NewTicker(100*time.Millisecond)
	defer tick.Stop()
	for last, since := s.ops.Load(), time.Now(); ; {
		select {
		case <-done:
			return errors.Join(errs...)
		case <-deadline:
			s.Stop.Store(true)
		case <-tick.C:
			if c := s.ops.Load(); c != last || s.Stop.Load() {
				last, since = c, time.Now()
			} else if stall > 0 && time.Since(since) >= stall {
				s.Stop.Store(true)
				msg := fmt.Sprintf("no operation completed for %v", stall)
				for w := range s.cur {
					if msg += fmt.Sprintf("\nworker %d is on key %d", w, s.cur[w].Load()); s.Autopsy != nil {
						msg += ":\n" + s.Autopsy(Key(s.cur[w].Load()))
					}
				}
				return errors.New(msg)
			}
		}
	}
}

// Sweep compares a quiescent store, whose pairs each visits, with the
// mirrors: every mirrored key holds its value and no other key exists,
// but a pending write's key may be in its state before or after it. The
// mirrors then take that state, so a soak can go on over the same store.
func (s *Soak) Sweep(each func(visit func(key []byte, value uint64))) error {
	var errs []string
	store := map[string]uint64{}
	each(func(key []byte, v uint64) { store[string(key)] = v })
	for w, m := range s.owned {
		if p := s.pending[w]; p != nil {
			v, in := store[string(Key(p.k))]
			want, had := m[p.k]
			switch {
			case in && (had && v == want || p.op != 'D' && v == p.v):
				m[p.k] = v
			case !in && (!had || p.op == 'D'):
				delete(m, p.k)
			default:
				errs = append(errs, fmt.Sprintf("pending %c of key %d to %d: store has %d,%v, before it %d,%v", p.op, p.k, p.v, v, in, want, had))
			}
			s.pending[w] = nil
		}
		for k, want := range m {
			if v, in := store[string(Key(k))]; !in || v != want {
				errs = append(errs, fmt.Sprintf("key %d = %d,%v, want %d", k, v, in, want))
			}
			delete(store, string(Key(k)))
		}
	}
	for k, v := range store {
		errs = append(errs, fmt.Sprintf("key %x = %d, want absent", k, v))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("final sweep: %d mismatches:\n%s", len(errs), strings.Join(errs[:min(len(errs), 20)], "\n"))
}
