package epoch

import (
	"sync"
	"sync/atomic"
	"time"
)

// Centralized is the original Bw-Tree GC scheme (Fig. 5a of the paper): a
// list of global epoch objects, each holding a shared counter of the
// threads enrolled in it, plus that epoch's garbage list. A background
// goroutine installs a new epoch every interval and reclaims epochs whose
// counters have drained to zero.
//
// Every worker increments and decrements the *shared* counter of the
// current epoch on entry/exit — the cache-coherence hot spot that limits
// its scalability.
type Centralized struct {
	current atomic.Pointer[centralEpoch]
	// oldest is advanced only by the background goroutine but read
	// concurrently by Stats (epoch-lag gauge), hence atomic.
	oldest   atomic.Pointer[centralEpoch]
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	stats    centralStats
	closeOn  sync.Once
}

type centralStats struct {
	retired   atomic.Uint64
	reclaimed atomic.Uint64
	advances  atomic.Uint64
}

type centralEpoch struct {
	active  atomic.Int64
	garbage garbageStack
	next    atomic.Pointer[centralEpoch]
}

// garbageStack is a lock-free Treiber stack of retire callbacks.
type garbageStack struct {
	head atomic.Pointer[garbageNode]
}

type garbageNode struct {
	fn   func()
	next *garbageNode
}

func (g *garbageStack) push(fn func()) {
	n := &garbageNode{fn: fn}
	for {
		h := g.head.Load()
		n.next = h
		if g.head.CompareAndSwap(h, n) {
			return
		}
	}
}

// drain runs and discards every callback, returning the count.
func (g *garbageStack) drain() uint64 {
	n := g.head.Swap(nil)
	var count uint64
	for ; n != nil; n = n.next {
		n.fn()
		count++
	}
	return count
}

// NewCentralized starts a centralized GC whose background goroutine
// installs a fresh epoch every interval (the paper uses 40ms).
func NewCentralized(interval time.Duration) *Centralized {
	c := &Centralized{
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	e := &centralEpoch{}
	c.current.Store(e)
	c.oldest.Store(e)
	go c.run()
	return c
}

func (c *Centralized) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.advance()
		}
	}
}

// advance installs a new current epoch and reclaims drained old epochs.
func (c *Centralized) advance() {
	fresh := &centralEpoch{}
	cur := c.current.Load()
	cur.next.Store(fresh)
	c.current.Store(fresh)
	c.stats.advances.Add(1)

	// Reclaim every leading epoch whose counter has drained. An epoch may
	// only be reclaimed once it is no longer current (threads can no
	// longer enroll) and its active count is zero.
	for e := c.oldest.Load(); e != cur && e.active.Load() == 0; e = c.oldest.Load() {
		c.stats.reclaimed.Add(e.garbage.drain())
		c.oldest.Store(e.next.Load())
	}
}

// Register implements GC.
func (c *Centralized) Register() Handle { return &centralHandle{gc: c} }

// Close implements GC.
func (c *Centralized) Close() {
	c.closeOn.Do(func() {
		close(c.stop)
		<-c.done
		// Final sweep: everything is quiescent by contract.
		for e := c.oldest.Load(); e != nil; e = e.next.Load() {
			c.stats.reclaimed.Add(e.garbage.drain())
		}
	})
}

// Stats implements GC.
func (c *Centralized) Stats() Stats {
	st := Stats{
		Retired:   c.stats.retired.Load(),
		Reclaimed: c.stats.reclaimed.Load(),
		Advances:  c.stats.advances.Load(),
	}
	// Reclamation lag: epochs installed but not yet drained, oldest to
	// current. The walk races with advance(), so the count is
	// gauge-grade; the list is at most a few entries long unless a
	// worker is stuck inside an old epoch. Bounded defensively in case a
	// torn walk observes an in-progress append.
	cur := c.current.Load()
	for e := c.oldest.Load(); e != nil && e != cur && st.EpochLag < 1<<20; e = e.next.Load() {
		st.EpochLag++
	}
	return st
}

type centralHandle struct {
	gc       *Centralized
	enrolled *centralEpoch
	gone     bool
}

// Enter enrolls the worker in the current epoch by incrementing its shared
// counter — the coherence traffic the decentralized scheme eliminates.
func (h *centralHandle) Enter() {
	if h.gone {
		panic("epoch: Enter on unregistered handle")
	}
	for {
		e := h.gc.current.Load()
		e.active.Add(1)
		// The epoch may have been swapped between Load and Add; re-check
		// so we never enroll in an epoch the collector believes drained.
		if h.gc.current.Load() == e {
			h.enrolled = e
			return
		}
		e.active.Add(-1)
	}
}

// Exit removes the worker from the epoch it enrolled in.
func (h *centralHandle) Exit() {
	h.enrolled.active.Add(-1)
	h.enrolled = nil
}

// Retire adds garbage to the current epoch's shared garbage list.
func (h *centralHandle) Retire(fn func()) {
	if h.gone {
		panic("epoch: Retire on unregistered handle")
	}
	h.gc.stats.retired.Add(1)
	h.gc.current.Load().garbage.push(fn)
}

// Unregister implements Handle. Centralized handles hold no local garbage
// (it lives in the shared epoch lists), so unregistering only marks the
// handle dead to catch post-Unregister use.
func (h *centralHandle) Unregister() { h.gone = true }
