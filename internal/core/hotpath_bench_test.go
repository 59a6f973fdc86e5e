package core

import (
	"encoding/binary"
	"testing"
)

// BenchmarkYCSBCHotPath is the read-only (YCSB-C) hot path that prices
// deep tracing's disabled mode: Lookups against a preloaded,
// consolidated tree with tracing *disabled*. Compiled normally, every
// probe site costs its nil/flag check; compiled with -tags notrace the
// probes are constant-folded away. Run it under both tags in
// alternating pairs: a normal build that is slower than the notrace one
// beyond the pairs' spread means a probe leaks real work into the
// disabled path.
func BenchmarkYCSBCHotPath(b *testing.B) {
	const keys = 200_000
	t := New(DefaultOptions())
	defer t.Close()
	s := t.NewSession()
	defer s.Release()

	key := make([]byte, 8)
	for i := 0; i < keys; i++ {
		binary.BigEndian.PutUint64(key, uint64(i)*0x9e3779b97f4a7c15)
		s.Insert(key, uint64(i))
	}
	t.ConsolidateAll()

	var out []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(i%keys)*0x9e3779b97f4a7c15)
		out = s.Lookup(key, out[:0])
	}
	_ = out
}

// BenchmarkTracedLookupParallel prices the enabled trace pipeline where
// sessions share its sinks: 4×GOMAXPROCS goroutines, each on its own
// session, run Lookups on a traced tree, so each of the 2×GOMAXPROCS
// sinks takes the flight entries (one per op) of two sessions under its
// ring mutexes. Run it against a build whose sessions have sinks of
// their own, in alternating pairs, to see the cost of sharing.
func BenchmarkTracedLookupParallel(b *testing.B) {
	const keys = 200_000
	opts := DefaultOptions()
	opts.Trace = true
	t := New(opts)
	defer t.Close()
	s := t.NewSession()
	key := make([]byte, 8)
	for i := 0; i < keys; i++ {
		binary.BigEndian.PutUint64(key, uint64(i)*0x9e3779b97f4a7c15)
		s.Insert(key, uint64(i))
	}
	s.Release()
	t.ConsolidateAll()

	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := t.NewSession()
		defer s.Release()
		key := make([]byte, 8)
		var out []uint64
		for i := 0; pb.Next(); i++ {
			binary.BigEndian.PutUint64(key, uint64(i%keys)*0x9e3779b97f4a7c15)
			out = s.Lookup(key, out[:0])
		}
	})
}
