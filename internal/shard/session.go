package shard

import (
	"bytes"

	"repro/bwtree"
)

// Session is one goroutine's handle to every shard: point operations
// route to the owning shard, scans scatter-gather. Reads and scans go
// through one tree session per shard. In memory, writes go through the
// same sessions; when the store is durable they go through one
// DurableSession, which logs them, and the tree sessions are its own.
// Like a tree session it must be used by at most one goroutine.
type Session struct {
	st     *Store
	subs   []*bwtree.Session      // indexed by shard
	ds     *bwtree.DurableSession // nil in memory
	curs   []cursor               // scan state, reused across Scan calls
	active []*cursor              // merge working set, reused across Scan calls
}

// NewSession opens a session on every shard. Sessions are the unit of
// stickiness: a connection (or worker) holds one and reuses its per-shard
// epoch handles and scratch buffers for its whole lifetime.
func (st *Store) NewSession() *Session {
	s := &Session{st: st, subs: make([]*bwtree.Session, len(st.trees))}
	if st.d != nil {
		s.ds = st.d.NewSession()
	}
	for i, t := range st.trees {
		if s.ds != nil {
			s.subs[i] = s.ds.Partition(i)
		} else {
			s.subs[i] = t.NewSession()
		}
	}
	return s
}

// Release returns every shard session.
func (s *Session) Release() {
	if s.ds != nil {
		s.ds.Release()
		return
	}
	for _, sub := range s.subs {
		sub.Release()
	}
}

// route returns the tree session owning key.
func (s *Session) route(key []byte) *bwtree.Session {
	return s.subs[s.st.router.Shard(key)]
}

// Insert adds (key, value) on the owning shard. The error is non-nil
// only for durable stores whose writer is gone (closed or crashed).
func (s *Session) Insert(key []byte, value uint64) (bool, error) {
	if s.ds != nil {
		return s.ds.Insert(key, value)
	}
	return s.route(key).Insert(key, value), nil
}

// Update replaces key's value on the owning shard.
func (s *Session) Update(key []byte, value uint64) (bool, error) {
	if s.ds != nil {
		return s.ds.Update(key, value)
	}
	return s.route(key).Update(key, value), nil
}

// Delete removes key from the owning shard.
func (s *Session) Delete(key []byte, value uint64) (bool, error) {
	if s.ds != nil {
		return s.ds.Delete(key, value)
	}
	return s.route(key).Delete(key, value), nil
}

// Lookup reads key from the owning shard.
func (s *Session) Lookup(key []byte, out []uint64) []uint64 {
	return s.route(key).Lookup(key, out)
}

// minStartKey substitutes for an empty scan start key.
var minStartKey = []byte{0}

// scanChunk is how many pairs a cursor pulls from its shard per refill:
// large enough to amortize the descend per chunk, small enough that a
// short scan doesn't over-fetch from every shard.
const scanChunk = 256

// scanSlack is how many pairs beyond its even share n/k a cursor's first
// fill pulls, so that with keys spread evenly over the k shards a scan
// rarely has to refill a cursor before it has emitted n pairs.
const scanSlack = 8

// cursor is one shard's pull-stream of ordered pairs, fetched in chunks
// through the tree session's ordinary Scan entry point. Keys are copied
// into a per-cursor arena: callback keys are only valid during the
// visit, but merge order means a buffered key outlives its chunk's
// callbacks.
type cursor struct {
	sub *bwtree.Session
	// add is c.push bound once, so a fill allocates no closure.
	add    func(key []byte, value uint64) bool
	arena  []byte
	starts []int
	vals   []uint64
	pos    int
	// resume is the exclusive restart point: the last emitted key + 0x00,
	// the immediate successor in bytewise order.
	resume []byte
	// tail is set when the shard returned fewer pairs than requested, so
	// the current buffer is the stream's end.
	tail bool
}

func (c *cursor) len() int { return len(c.starts) }

func (c *cursor) key(i int) []byte {
	end := len(c.arena)
	if i+1 < len(c.starts) {
		end = c.starts[i+1]
	}
	return c.arena[c.starts[i]:end]
}

// push buffers one pair of the chunk being fetched.
func (c *cursor) push(k []byte, v uint64) bool {
	c.starts = append(c.starts, len(c.arena))
	c.arena = append(c.arena, k...)
	c.vals = append(c.vals, v)
	return true
}

// fill pulls the next chunk from the shard. Reports whether the cursor
// has a head afterwards.
func (c *cursor) fill(chunk int) bool {
	if c.tail {
		return false
	}
	c.arena, c.starts, c.vals, c.pos = c.arena[:0], c.starts[:0], c.vals[:0], 0
	got := c.sub.Scan(c.resume, chunk, c.add)
	if got < chunk {
		c.tail = true
	} else {
		last := c.key(got - 1)
		c.resume = append(append(c.resume[:0], last...), 0)
	}
	return got > 0
}

// Scan visits at most n pairs in ascending key order from the smallest
// key >= start, gathered across every shard through a merged k-way
// iterator: each shard contributes an ordered chunk stream and the merge
// emits the minimum head until n pairs are out or all streams dry up.
// Each of the k opened streams first fetches its even share of n plus
// scanSlack pairs, and a drained stream refetches only what the scan
// still owes, so a scan pulls about n pairs in all, not n per shard.
//
// Ordering rule under concurrency: each chunk is one atomic shard scan,
// and chunks restart at the successor of the last emitted key, so the
// merged stream is strictly ascending and every key that exists for the
// whole scan in the visited range appears exactly once. Keys mutated
// concurrently may appear or not, exactly as with a single tree's
// node-at-a-time scan.
func (s *Session) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	if n <= 0 {
		return 0
	}
	if len(start) == 0 {
		// The tree requires non-empty keys; {0} is the minimum valid key,
		// so it means "from the beginning".
		start = minStartKey
	}
	chunk := min(n, scanChunk)
	from := scanFrom(s.st.router, start)
	// first is min(chunk, n/k + scanSlack), written so that n near
	// math.MaxInt cannot overflow.
	first := chunk
	if share := n / (len(s.subs) - from); share < chunk-scanSlack {
		first = share + scanSlack
	}
	if cap(s.curs) < len(s.subs) {
		s.curs = make([]cursor, len(s.subs))
	}
	// active holds pointers to the cursors with a live head.
	active := s.active[:0]
	for i := from; i < len(s.subs); i++ {
		c := &s.curs[i]
		if c.add == nil {
			c.add = c.push
		}
		c.tail = false
		c.sub = s.subs[i]
		c.resume = append(c.resume[:0], start...)
		if c.fill(first) {
			active = append(active, c)
		}
	}
	s.active = active[:0]
	count := 0
	for count < n && len(active) > 0 {
		// Linear min over the shard heads: shard counts are per-core small
		// (tens, not thousands), where a scan through a cache-resident
		// slice beats heap bookkeeping.
		best := 0
		for i := 1; i < len(active); i++ {
			if bytes.Compare(active[i].key(active[i].pos), active[best].key(active[best].pos)) < 0 {
				best = i
			}
		}
		c := active[best]
		if !visit(c.key(c.pos), c.vals[c.pos]) {
			return count + 1
		}
		count++
		c.pos++
		if c.pos >= c.len() {
			left := min(chunk, n-count)
			if left == 0 || !c.fill(left) {
				active[best] = active[len(active)-1]
				active = active[:len(active)-1]
			}
		}
	}
	return count
}
