//go:build !notrace

package bwtree

// deepProbes mirrors internal/core's build-tag constant: the default
// build records per-op probes (latencies, flight entries, phase traces)
// on traced trees; -tags notrace compiles them out, and tests gate their
// per-op assertions on it.
const deepProbes = true
