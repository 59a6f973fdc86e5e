package obs

import "sync"

// ring is the fixed-size buffer behind every per-session trace record:
// structural events, sampled phase traces and flight-recorder entries.
// The owning session is its only writer; dump endpoints drain or copy it
// concurrently. The mutex exists so a reader never sees a torn record:
// the writer holds it for a few stores, and it is contended only while a
// dump runs. A ring without a buffer is off.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T    // fixed when the owning handle is built
	next uint64 // records pushed since the last drain
}

// on reports whether the ring has a buffer. buf never changes after the
// handle is built, so this reads it without the lock.
func (r *ring[T]) on() bool { return len(r.buf) > 0 }

// push stores v, overwriting the oldest record once the ring is full,
// and reports whether the overwritten record was never drained.
func (r *ring[T]) push(v T) (dropped bool) {
	r.mu.Lock()
	dropped = r.next >= uint64(len(r.buf))
	r.buf[r.next%uint64(len(r.buf))] = v
	r.next++
	r.mu.Unlock()
	return dropped
}

// drain appends the buffered records to out, oldest first, and empties
// the ring.
func (r *ring[T]) drain(out []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out = r.appendLocked(out)
	r.next = 0
	return out
}

// peek appends the buffered records to out, oldest first, and leaves
// them in place.
func (r *ring[T]) peek(out []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendLocked(out)
}

// appendLocked appends the ring's last min(next, len(buf)) records; the
// newest sits at (next-1) % len(buf).
func (r *ring[T]) appendLocked(out []T) []T {
	size := uint64(len(r.buf))
	for i := r.next - min(r.next, size); i < r.next; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}
