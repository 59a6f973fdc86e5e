// Package histcheck is a concurrent-history recorder and checker for the
// indexes in this repository. It wraps any index.Index, stamps every
// operation with an invocation/response interval drawn from one global
// atomic counter, and verifies the merged history against sequential
// Bw-Tree semantics: a linearizability check per key for point operations
// (catching uniqueness violations, lost updates, and stale reads) plus
// sound completeness checks for range scans (catching phantom, duplicated,
// and skipped keys).
//
// The paper's central claim is that *correctness* is the hard part of a
// lock-free Bw-Tree; its only concurrent oracles, however, are quiescent
// structural validation and coarse count checks. This package closes that
// gap: any workload — benchmark, stress run, or fault-injection schedule —
// can run with the recorder attached and get a client-visible correctness
// verdict, not just a structurally-valid tree.
//
// Usage:
//
//	c := histcheck.Wrap(index.NewOpenBwTree(), false)
//	defer c.Close()
//	// ... drive workers through c.NewSession() ...
//	for _, v := range c.Check() {
//		log.Printf("violation: %v", v)
//	}
//
// The recorder costs two atomic adds and one (amortized) slice append per
// operation, so checked runs are slower than bare runs but preserve enough
// concurrency to exercise the interleavings that matter. History() and
// Check() must only be called once all sessions are quiescent.
package histcheck

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// OpKind identifies a recorded operation.
type OpKind uint8

// Recorded operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpUpdate
	OpLookup
	OpScan
)

var opKindNames = [...]string{"Insert", "Delete", "Update", "Lookup", "Scan"}

func (k OpKind) String() string { return opKindNames[k] }

// KV is one (key, value) pair visited by a scan.
type KV struct {
	Key   string
	Value uint64
}

// Record is one completed operation with its invocation/response interval.
// Inv and Ret are drawn from a single atomic counter, so for any two
// records a.Ret < b.Inv proves a completed before b was invoked; such
// precedence must be respected by every linearization the checker
// considers.
type Record struct {
	// Thread is the recording session's ID.
	Thread int
	Kind   OpKind
	// Key is the operation's key (the start key for scans).
	Key string
	// Value is the written value (insert/update) or the delete argument.
	Value uint64
	// OK is the reported outcome of a write operation.
	OK bool
	// Vals holds a lookup's returned values.
	Vals []uint64
	// ScanN is a scan's item limit; Pairs the visited items in visit
	// order; Stopped reports that the caller's visit function aborted the
	// scan early (the result is then only a prefix).
	ScanN   int
	Pairs   []KV
	Stopped bool
	// Inv and Ret are the interval stamps.
	Inv, Ret uint64
}

func (r Record) String() string {
	switch r.Kind {
	case OpLookup:
		return fmt.Sprintf("T%d %s(%x)=%v @[%d,%d]", r.Thread, r.Kind, r.Key, r.Vals, r.Inv, r.Ret)
	case OpScan:
		return fmt.Sprintf("T%d %s(%x,n=%d)->%d items @[%d,%d]", r.Thread, r.Kind, r.Key, r.ScanN, len(r.Pairs), r.Inv, r.Ret)
	}
	return fmt.Sprintf("T%d %s(%x,%d)=%v @[%d,%d]", r.Thread, r.Kind, r.Key, r.Value, r.OK, r.Inv, r.Ret)
}

// History is a merged, Inv-ordered operation history.
type History struct {
	// NonUnique selects the non-unique (multi-value) sequential model.
	NonUnique bool
	Ops       []Record
}

// Checked wraps an index.Index so every session records its operations.
type Checked struct {
	inner     index.Index
	nonUnique bool
	clock     atomic.Uint64

	mu   sync.Mutex
	logs []*sessionLog
}

type sessionLog struct {
	thread int
	ops    []Record
}

// Wrap attaches a history recorder to idx. nonUnique must match the
// index's key semantics (index.Index adapters are unique-key; pass true
// only when wrapping a non-unique Bw-Tree).
func Wrap(idx index.Index, nonUnique bool) *Checked {
	return &Checked{inner: idx, nonUnique: nonUnique}
}

// Name returns the wrapped index's name.
func (c *Checked) Name() string { return c.inner.Name() }

// Close closes the wrapped index.
func (c *Checked) Close() { c.inner.Close() }

// NewSession returns a recording session backed by a fresh inner session.
func (c *Checked) NewSession() index.Session {
	c.mu.Lock()
	l := &sessionLog{thread: len(c.logs)}
	c.logs = append(c.logs, l)
	c.mu.Unlock()
	inner := c.inner.NewSession()
	return &session{c: c, inner: inner, batch: index.AsBatch(inner), log: l}
}

// History merges every session's log into one Inv-ordered history. All
// sessions must be quiescent (no operation in flight).
func (c *Checked) History() *History {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &History{NonUnique: c.nonUnique}
	for _, l := range c.logs {
		h.Ops = append(h.Ops, l.ops...)
	}
	sort.Slice(h.Ops, func(a, b int) bool { return h.Ops[a].Inv < h.Ops[b].Inv })
	return h
}

// Check merges the history and verifies it. All sessions must be
// quiescent. It returns every violation found (nil for a clean history).
func (c *Checked) Check() []Violation {
	return Check(c.History())
}

// session is one worker's recording view. Like every index.Session it must
// be used by at most one goroutine. It natively implements
// index.BatchSession: batched calls are forwarded to the inner session's
// batch path and recorded as one Record per constituent operation, all
// sharing the whole-batch invocation/response interval. The shared
// interval is sound — it is wider than each op's true interval, and wider
// intervals only relax the precedence constraints the checker enforces,
// so a history that fails with them contains a real violation.
type session struct {
	c     *Checked
	inner index.Session
	batch index.BatchSession
	log   *sessionLog
}

// record appends a completed operation to the session's private log.
func (s *session) record(r Record) {
	r.Thread = s.log.thread
	s.log.ops = append(s.log.ops, r)
}

func (s *session) Insert(key []byte, value uint64) bool {
	inv := s.c.clock.Add(1)
	ok := s.inner.Insert(key, value)
	ret := s.c.clock.Add(1)
	s.record(Record{Kind: OpInsert, Key: string(key), Value: value, OK: ok, Inv: inv, Ret: ret})
	return ok
}

func (s *session) Delete(key []byte, value uint64) bool {
	inv := s.c.clock.Add(1)
	ok := s.inner.Delete(key, value)
	ret := s.c.clock.Add(1)
	s.record(Record{Kind: OpDelete, Key: string(key), Value: value, OK: ok, Inv: inv, Ret: ret})
	return ok
}

func (s *session) Update(key []byte, value uint64) bool {
	inv := s.c.clock.Add(1)
	ok := s.inner.Update(key, value)
	ret := s.c.clock.Add(1)
	s.record(Record{Kind: OpUpdate, Key: string(key), Value: value, OK: ok, Inv: inv, Ret: ret})
	return ok
}

func (s *session) Lookup(key []byte, out []uint64) []uint64 {
	base := len(out)
	inv := s.c.clock.Add(1)
	out = s.inner.Lookup(key, out)
	ret := s.c.clock.Add(1)
	s.record(Record{Kind: OpLookup, Key: string(key),
		Vals: append([]uint64(nil), out[base:]...), Inv: inv, Ret: ret})
	return out
}

func (s *session) Scan(start []byte, n int, visit func(key []byte, value uint64) bool) int {
	var pairs []KV
	stopped := false
	inv := s.c.clock.Add(1)
	count := s.inner.Scan(start, n, func(k []byte, v uint64) bool {
		pairs = append(pairs, KV{Key: string(k), Value: v})
		if !visit(k, v) {
			stopped = true
			return false
		}
		return true
	})
	ret := s.c.clock.Add(1)
	s.record(Record{Kind: OpScan, Key: string(start), ScanN: n, Pairs: pairs, Stopped: stopped, Inv: inv, Ret: ret})
	return count
}

func (s *session) InsertBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	inv := s.c.clock.Add(1)
	ok = s.batch.InsertBatch(keys, vals, ok)
	ret := s.c.clock.Add(1)
	for i := range keys {
		s.record(Record{Kind: OpInsert, Key: string(keys[i]), Value: vals[i], OK: ok[i], Inv: inv, Ret: ret})
	}
	return ok
}

func (s *session) DeleteBatch(keys [][]byte, vals []uint64, ok []bool) []bool {
	inv := s.c.clock.Add(1)
	ok = s.batch.DeleteBatch(keys, vals, ok)
	ret := s.c.clock.Add(1)
	for i := range keys {
		s.record(Record{Kind: OpDelete, Key: string(keys[i]), Value: vals[i], OK: ok[i], Inv: inv, Ret: ret})
	}
	return ok
}

// LookupBatch defers the caller's visits until the inner batch call has
// returned, so each recorded lookup carries the full batch interval.
func (s *session) LookupBatch(keys [][]byte, visit func(i int, vals []uint64)) {
	inv := s.c.clock.Add(1)
	type res struct {
		i    int
		vals []uint64
	}
	results := make([]res, 0, len(keys))
	s.batch.LookupBatch(keys, func(i int, vals []uint64) {
		// vals may alias the inner session's scratch buffer; copy before
		// the next visit overwrites it.
		results = append(results, res{i: i, vals: append([]uint64(nil), vals...)})
	})
	ret := s.c.clock.Add(1)
	for _, r := range results {
		s.record(Record{Kind: OpLookup, Key: string(keys[r.i]), Vals: r.vals, Inv: inv, Ret: ret})
		visit(r.i, r.vals)
	}
}

func (s *session) Release() { s.inner.Release() }
