package bwtree

import (
	"hash/maphash"
	"sync"
)

// NStripes is the number of commit-ordering stripe locks in a Stripes
// table. The transaction layer orders multi-key lock acquisition by
// stripe index.
const NStripes = 256

// Stripes is the commit-ordering lock table: NStripes mutexes indexed by
// a seeded hash of the key. A Durable orders single-key apply+append
// pairs (the apply alone without a log) with one per partition; the
// transaction engine locks a commit's write stripes in sorted index order
// and try-locks its read stripes on the same tables, so transactional and
// single-key writers exclude each other.
type Stripes struct {
	mu   [NStripes]sync.Mutex
	seed maphash.Seed
}

// NewStripes returns a table with a fresh hash seed.
func NewStripes() *Stripes { return &Stripes{seed: maphash.MakeSeed()} }

// Of returns key's stripe index in [0, NStripes).
func (s *Stripes) Of(key []byte) int {
	return int(maphash.Bytes(s.seed, key) % NStripes)
}

// Lock acquires stripe i.
func (s *Stripes) Lock(i int) { s.mu[i].Lock() }

// Unlock releases stripe i.
func (s *Stripes) Unlock(i int) { s.mu[i].Unlock() }

// TryLock attempts stripe i without blocking. Read validation uses it so
// a reader never waits on a writer (a failed try is a conservative
// abort).
func (s *Stripes) TryLock(i int) bool { return s.mu[i].TryLock() }

// Barrier takes and releases every stripe in index order: once it
// returns, every critical section that held a stripe when Barrier began
// has finished.
func (s *Stripes) Barrier() {
	for i := range s.mu {
		s.mu[i].Lock()
		s.mu[i].Unlock() // empty critical section is the barrier
	}
}
