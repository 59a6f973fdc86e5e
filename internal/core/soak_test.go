package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/histcheck"
)

// soakSettings reads the -soak.seed, -soak.dur and -soak.workers flags.
var soakSettings = histcheck.SoakFlags()

// TestSoakOwnership churns one tree with the soak geometry: each worker
// runs the ownership oracle's mix over its own 20000 keys, so any outcome
// that differs from its mirror is a linearizability violation, and a
// stall reports each worker's descent path. The tree must then validate
// and hold exactly the mirrors' union.
func TestSoakOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is slow")
	}
	seed, dur, workers := soakSettings(t, 8*time.Second, 6)
	tr := core.New(histcheck.SoakOptions())
	defer tr.Close()
	soak := histcheck.NewSoak(workers, 20000)
	soak.Autopsy = func(k []byte) string { return core.FormatPath(tr.DescendPath(k)) }
	err := soak.Run(dur, 30*time.Second, func(w int) error {
		s := tr.NewSession()
		defer s.Release()
		return soak.Work(w, histcheck.Infallible(s), rand.New(rand.NewSource(seed+int64(w))), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := soak.Sweep(histcheck.TreePairs(tr)); err != nil {
		t.Fatal(err)
	}
}
