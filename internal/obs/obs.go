// Package obs is the tree's observability layer: allocation-free
// log-bucketed latency histograms; one trace pipeline (phase.go) whose
// sinks, at most 2×GOMAXPROCS shared by all sessions, keep the latency
// histograms and three rings of one generic type (ring.go) — structural
// SMO events, sampled per-operation phase traces and the flight recorder
// — all ordered by one sequence counter;
// Chrome trace-event export (chrometrace.go); and a live /debug +
// /metrics HTTP surface built from expvar, net/http/pprof, and a
// Prometheus text renderer (prom.go).
//
// The package is stdlib-only and imports nothing from the rest of the
// module, so every layer (core, epoch, harness, commands) can depend on
// it without cycles. Everything here is designed for two regimes:
//
//   - disabled (the default): zero allocations and a single nil check on
//     the hot path;
//   - enabled: recording stays allocation-free (atomic adds, or one
//     short mutex section, into fixed-size buffers shared by the
//     sessions of one sink), with aggregation cost paid only by the
//     reader.
package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// OpClass partitions public index operations for latency accounting.
type OpClass uint8

const (
	OpInsert OpClass = iota
	OpUpdate
	OpDelete
	OpRead
	OpScan
	// OpBatch records whole batch-call latencies (one observation per
	// InsertBatch/DeleteBatch/LookupBatch call), alongside the per-op
	// classes above — the visible cost of epoch amortization.
	OpBatch
	// NumOpClasses bounds arrays indexed by OpClass.
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{"insert", "update", "delete", "read", "scan", "batch"}

// String returns the lower-case class name used in reports and JSON.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return "unknown"
}

// MarshalJSON renders the class as its name.
func (c OpClass) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts a class name (the MarshalJSON form) or a raw
// numeric value, so flight-recorder dumps round-trip through JSON.
func (c *OpClass) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		for i, n := range opClassNames {
			if n == name {
				*c = OpClass(i)
				return nil
			}
		}
		return fmt.Errorf("obs: unknown op class %q", name)
	}
	var v uint8
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*c = OpClass(v)
	return nil
}

// epoch anchors Now; time.Since reads the monotonic clock.
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start. It is the
// timestamp source for histograms and trace events: cheap (one vDSO
// clock read), monotonic, and comparable across goroutines.
func Now() int64 { return int64(time.Since(epoch)) }
