package histcheck

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// mapStore is a soak Session over a locked map. lie makes every write
// report the opposite outcome, fail makes every write fail after taking
// effect, and block stalls every write.
type mapStore struct {
	mu    sync.Mutex
	m     map[string]uint64
	lie   bool
	fail  error
	block chan struct{}
}

func (s *mapStore) write(k []byte, v uint64, want bool, put bool) (bool, error) {
	if s.block != nil {
		<-s.block
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, had := s.m[string(k)]
	ok := had == want
	if ok && put {
		s.m[string(k)] = v
	} else if ok {
		delete(s.m, string(k))
	}
	return ok != s.lie, s.fail
}

func (s *mapStore) Insert(k []byte, v uint64) (bool, error) { return s.write(k, v, false, true) }
func (s *mapStore) Update(k []byte, v uint64) (bool, error) { return s.write(k, v, true, true) }
func (s *mapStore) Delete(k []byte, v uint64) (bool, error) { return s.write(k, v, true, false) }

func (s *mapStore) Lookup(k []byte, out []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[string(k)]; ok {
		out = append(out, v)
	}
	return out
}

func (s *mapStore) Scan(start []byte, n int, visit func([]byte, uint64) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.m {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for i, k := range keys[:min(n, len(keys))] {
		if !visit([]byte(k), s.m[k]) {
			return i + 1
		}
	}
	return min(n, len(keys))
}

func (s *mapStore) each(visit func([]byte, uint64)) {
	s.Scan(nil, len(s.m), func(k []byte, v uint64) bool { visit(k, v); return true })
}

// TestSoakGreenOnAnHonestStore runs two workers over a correct store and
// sweeps it clean.
func TestSoakGreenOnAnHonestStore(t *testing.T) {
	st := &mapStore{m: map[string]uint64{}}
	soak := NewSoak(2, 50)
	err := soak.Run(time.Minute, 0, func(w int) error { return soak.Work(w, st, rand.New(rand.NewSource(int64(w))), 2000) })
	if err != nil {
		t.Fatal(err)
	}
	if err := soak.Sweep(st.each); err != nil {
		t.Fatal(err)
	}
}

// TestSoakCatchesWrongOutcome: a store whose writes report the opposite
// outcome fails its worker, and a key changed behind the mirrors fails
// the sweep.
func TestSoakCatchesWrongOutcome(t *testing.T) {
	st := &mapStore{m: map[string]uint64{}, lie: true}
	soak := NewSoak(1, 50)
	if err := soak.Work(0, st, rand.New(rand.NewSource(1)), 100); err == nil || !strings.Contains(err.Error(), "returned") {
		t.Fatalf("lying store passed: %v", err)
	}
	st = &mapStore{m: map[string]uint64{}}
	soak = NewSoak(1, 50)
	if err := soak.Work(0, st, rand.New(rand.NewSource(1)), 100); err != nil {
		t.Fatal(err)
	}
	st.m[string(Key(1<<40))] = 7
	if err := soak.Sweep(st.each); err == nil || !strings.Contains(err.Error(), "want absent") {
		t.Fatalf("stray key passed the sweep: %v", err)
	}
}

// TestSoakPendingWrite: a write that fails after taking effect is
// pending, so the sweep accepts the key in its state after the write,
// adopts it, and rejects any third state.
func TestSoakPendingWrite(t *testing.T) {
	crash := errors.New("crashed")
	st := &mapStore{m: map[string]uint64{}, fail: crash}
	soak := NewSoak(1, 50)
	for soak.pending[0] == nil {
		if err := soak.Work(0, st, rand.New(rand.NewSource(2)), 0); !errors.Is(err, crash) {
			t.Fatalf("Work = %v, want the session's error", err)
		}
	}
	p := *soak.pending[0]
	if err := soak.Sweep(st.each); err != nil {
		t.Fatalf("post-state of pending %+v rejected: %v", p, err)
	}
	soak.pending[0] = &p
	st.m[string(Key(p.k))] = p.v + 1
	if err := soak.Sweep(st.each); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("third state of pending %+v passed: %v", p, err)
	}
}

// TestSoakStallDetector: workers stuck in the store end the run with a
// report naming each worker's key.
func TestSoakStallDetector(t *testing.T) {
	st := &mapStore{m: map[string]uint64{}, block: make(chan struct{})}
	defer close(st.block)
	soak := NewSoak(2, 50)
	soak.Autopsy = func(key []byte) string { return "path to " + string(key) }
	err := soak.Run(time.Minute, 300*time.Millisecond, func(w int) error {
		return soak.Work(w, st, rand.New(rand.NewSource(3)), 0)
	})
	if err == nil || !strings.Contains(err.Error(), "no operation completed") || !strings.Contains(err.Error(), "worker 1 is on key") {
		t.Fatalf("stall not reported: %v", err)
	}
}
