//go:build !notrace

package core

// deepProbes gates every deep-path tracing probe in the hot path. The
// default build compiles them in (each one costs a single nil check when
// tracing is disabled at runtime); building with -tags notrace sets this
// to false so the compiler eliminates the probes entirely.
// BenchmarkYCSBCHotPath, run under both builds, prices the disabled mode.
const deepProbes = true
