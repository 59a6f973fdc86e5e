//go:build notrace

package bwtree

// deepProbes is false under -tags notrace; see probes_on_test.go.
const deepProbes = false
