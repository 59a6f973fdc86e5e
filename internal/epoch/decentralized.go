package epoch

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Decentralized is the OpenBw-Tree GC scheme (Fig. 5b of the paper),
// adopted from Silo and Deuteronomy. A single global epoch counter is
// advanced periodically by a background goroutine. Each worker keeps a
// private local epoch — published with a plain atomic store, never
// contended — and a private garbage list whose entries are tagged with the
// global epoch at retire time. A worker reclaims its own garbage whenever
// every registered worker's local epoch has advanced past a tag.
type Decentralized struct {
	global   atomic.Uint64
	interval time.Duration
	// threshold is the local-garbage length that triggers a reclamation
	// scan (the paper's "GC threshold", default 1024).
	threshold int

	mu      sync.Mutex // guards handles registry and orphans (cold path)
	handles map[*decentralHandle]struct{}
	orphans []taggedGarbage // garbage from unregistered handles

	stop    chan struct{}
	done    chan struct{}
	stats   centralStats
	closeOn sync.Once
}

// idleEpoch marks a worker as outside any critical section; it never
// blocks reclamation.
const idleEpoch = math.MaxUint64

// NewDecentralized starts a decentralized GC whose global epoch advances
// every interval. threshold is the per-worker garbage-list length that
// triggers a reclamation attempt; the paper's default is 1024.
func NewDecentralized(interval time.Duration, threshold int) *Decentralized {
	if threshold <= 0 {
		threshold = 1024
	}
	d := &Decentralized{
		interval:  interval,
		threshold: threshold,
		handles:   make(map[*decentralHandle]struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	d.global.Store(1)
	go d.run()
	return d
}

func (d *Decentralized) run() {
	defer close(d.done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.global.Add(1)
			d.stats.advances.Add(1)
			d.reclaimOrphans()
		}
	}
}

// Register implements GC.
func (d *Decentralized) Register() Handle {
	h := &decentralHandle{gc: d}
	h.local.Store(idleEpoch)
	d.mu.Lock()
	d.handles[h] = struct{}{}
	d.mu.Unlock()
	return h
}

// minLocal returns the smallest local epoch across all registered workers
// (idle workers do not constrain it).
func (d *Decentralized) minLocal() uint64 {
	min := uint64(idleEpoch)
	d.mu.Lock()
	for h := range d.handles {
		if e := h.local.Load(); e < min {
			min = e
		}
	}
	d.mu.Unlock()
	return min
}

// reclaimOrphans frees adopted garbage from unregistered handles whose
// tags have fallen below every live worker's local epoch.
func (d *Decentralized) reclaimOrphans() {
	min := d.minLocal()
	d.mu.Lock()
	kept := d.orphans[:0]
	var ready []taggedGarbage
	for _, g := range d.orphans {
		if g.epoch < min {
			ready = append(ready, g)
		} else {
			kept = append(kept, g)
		}
	}
	for i := len(kept); i < len(d.orphans); i++ {
		d.orphans[i] = taggedGarbage{}
	}
	d.orphans = kept
	d.mu.Unlock()
	for _, g := range ready {
		g.fn()
	}
	d.stats.reclaimed.Add(uint64(len(ready)))
}

// Close implements GC.
func (d *Decentralized) Close() {
	d.closeOn.Do(func() {
		close(d.stop)
		<-d.done
		d.mu.Lock()
		hs := make([]*decentralHandle, 0, len(d.handles))
		for h := range d.handles {
			hs = append(hs, h)
		}
		d.mu.Unlock()
		for _, h := range hs {
			h.Unregister()
		}
		// By contract every worker is quiescent at Close, so all orphans
		// are reclaimable.
		d.mu.Lock()
		orphans := d.orphans
		d.orphans = nil
		d.mu.Unlock()
		for _, g := range orphans {
			g.fn()
		}
		d.stats.reclaimed.Add(uint64(len(orphans)))
	})
}

// Stats implements GC.
func (d *Decentralized) Stats() Stats {
	st := Stats{
		Retired:   d.stats.retired.Load(),
		Reclaimed: d.stats.reclaimed.Load(),
		Advances:  d.stats.advances.Load(),
	}
	// Reclamation lag: how many epochs the slowest in-flight worker
	// trails the global counter. Idle workers report idleEpoch and never
	// constrain the minimum, so an idle tree reads 0.
	g := d.global.Load()
	if min := d.minLocal(); min < g {
		st.EpochLag = g - min
	}
	return st
}

type taggedGarbage struct {
	epoch uint64
	fn    func()
}

type decentralHandle struct {
	gc    *Decentralized
	local atomic.Uint64
	// garbage is worker-private; only Unregister (after the worker is
	// done) and the worker itself touch it.
	garbage []taggedGarbage
	gone    bool
}

// Enter publishes the worker's view of the global epoch. This is a single
// uncontended store to a cache line owned by this worker.
func (h *decentralHandle) Enter() {
	if h.gone {
		panic("epoch: Enter on unregistered handle")
	}
	h.local.Store(h.gc.global.Load())
}

// Exit marks the worker idle and, when enough local garbage has
// accumulated, reclaims entries older than every worker's local epoch.
func (h *decentralHandle) Exit() {
	h.local.Store(idleEpoch)
	if len(h.garbage) >= h.gc.threshold {
		h.reclaim()
	}
}

// Retire tags fn with the current global epoch and appends it to the
// worker-private garbage list — no shared-memory writes.
func (h *decentralHandle) Retire(fn func()) {
	if h.gone {
		panic("epoch: Retire on unregistered handle")
	}
	h.gc.stats.retired.Add(1)
	h.garbage = append(h.garbage, taggedGarbage{epoch: h.gc.global.Load(), fn: fn})
}

// reclaim frees every local entry tagged strictly below the minimum local
// epoch of all workers. A tag below the minimum means every operation that
// could have observed the object has since finished.
func (h *decentralHandle) reclaim() {
	min := h.gc.minLocal()
	kept := h.garbage[:0]
	var freed uint64
	for _, g := range h.garbage {
		if g.epoch < min {
			g.fn()
			freed++
		} else {
			kept = append(kept, g)
		}
	}
	// Zero the tail so reclaimed closures are collectible.
	for i := len(kept); i < len(h.garbage); i++ {
		h.garbage[i] = taggedGarbage{}
	}
	h.garbage = kept
	h.gc.stats.reclaimed.Add(freed)
}

// Unregister removes the handle from the registry and hands its pending
// garbage to the GC's orphan list, where the background goroutine reclaims
// it once every remaining worker's local epoch has moved past its tags.
func (h *decentralHandle) Unregister() {
	if h.gone {
		return
	}
	h.gone = true
	h.local.Store(idleEpoch)
	h.gc.mu.Lock()
	delete(h.gc.handles, h)
	h.gc.orphans = append(h.gc.orphans, h.garbage...)
	h.gc.mu.Unlock()
	h.garbage = nil
}
