//go:build notrace

package core

// deepProbes is false under -tags notrace: every deep-path tracing probe
// becomes dead code and is eliminated by the compiler. This build is the
// reference point for the disabled-mode probe cost; see probes_on.go.
const deepProbes = false
