// Package epoch provides safe memory reclamation for lock-free data
// structures via epoch-based garbage collection.
//
// Two schemes are implemented, mirroring §4.2 of the paper:
//
//   - Centralized: the original Bw-Tree design. A linked list of epoch
//     objects, each with a shared active-thread counter that every worker
//     increments on entry and decrements on exit; a background goroutine
//     appends new epochs at a fixed interval and reclaims fully-drained
//     ones. The shared counters are the scalability bottleneck the paper
//     measures in Fig. 10.
//
//   - Decentralized: the OpenBw-Tree (Silo/Deuteronomy-style) design. One
//     global epoch counter advanced by a background goroutine; each worker
//     keeps a private local epoch and a private garbage list, and reclaims
//     its own garbage once every other worker's local epoch has passed the
//     garbage's tag. Workers never write shared memory on the hot path.
//
// Go's runtime GC would keep retired nodes alive anyway; the point of this
// package is to reproduce the *synchronization cost* of each scheme
// faithfully and to give the tree a place to recycle node IDs and slabs
// only once they are provably unreachable.
package epoch

// GC is the interface both schemes implement.
type GC interface {
	// Register returns a handle for one worker goroutine. Handles must not
	// be shared between goroutines.
	Register() Handle
	// Close stops background goroutines and reclaims everything. The
	// caller must guarantee no handle is inside a critical section.
	Close()
	// Stats reports cumulative reclamation counters.
	Stats() Stats
}

// Handle is a per-worker capability to enter epochs and retire garbage.
//
// # Reuse contract
//
// A Handle is built for reuse: after Exit it may be re-Entered any number
// of times, and a cached handle (e.g. one held by a long-lived session or
// recycled through a Pool) stays valid across arbitrarily many Enter/Exit
// cycles, including across epoch advances and across other handles being
// registered and unregistered concurrently. Garbage retired in an earlier
// cycle survives the idle gap and is reclaimed on a later Exit (or by the
// parent GC once the handle unregisters).
//
// Unregister is terminal and idempotent: calling it twice is a no-op, but
// after the first call the handle must never Enter or Retire again — both
// schemes detect this and panic, because a post-Unregister Enter would be
// invisible to reclamation scans and could let protected memory be freed
// underfoot. Ownership of a handle may move between goroutines (a pool
// hand-off) as long as the transfer itself establishes happens-before and
// at most one goroutine uses the handle at a time.
type Handle interface {
	// Enter marks the start of an operation on the protected structure.
	// Every Enter must be paired with exactly one Exit before the next
	// Enter. Panics after Unregister.
	Enter()
	// Exit marks the end of the operation and may trigger reclamation.
	Exit()
	// Retire schedules fn to run once no concurrent operation can still
	// observe the retired object. fn must be cheap and must not re-enter
	// the GC. Panics after Unregister.
	Retire(fn func())
	// Unregister releases the handle. Pending garbage is handed to the
	// parent GC for eventual reclamation. Idempotent; any other use of
	// the handle afterwards is a contract violation.
	Unregister()
}

// Stats are cumulative counters for a GC instance.
type Stats struct {
	// Retired is the number of objects passed to Retire.
	Retired uint64
	// Reclaimed is the number of retire callbacks that have run.
	Reclaimed uint64
	// Advances is the number of epoch advances performed.
	Advances uint64
	// EpochLag gauges how far reclamation trails the present: in the
	// decentralized scheme, global epoch minus the slowest worker's local
	// epoch (0 when every worker is idle or current); in the centralized
	// scheme, the number of epoch objects still awaiting drain. A lag
	// that grows without bound means a stalled worker is pinning garbage.
	EpochLag uint64
}
