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
