package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HdrHistogram-style): values below
// 2*subCount map to their own bucket exactly; above that, each power of
// two is divided into subCount sub-buckets, bounding the relative width
// of any bucket by 1/subCount (6.25%). With NumBuckets = 512 the top
// bucket starts at 2^34 ns (~17 s); larger values clamp into it.
const (
	subBits    = 4
	subCount   = 1 << subBits // sub-buckets per power of two
	firstSplit = 2 * subCount // below this, bucket index == value
	// NumBuckets is the fixed bucket count of every histogram.
	NumBuckets = 512
)

// bucketIndex maps a non-negative value (nanoseconds) to its bucket.
func bucketIndex(v uint64) int {
	if v < firstSplit {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading one, >= 5
	idx := (exp-subBits+1)<<subBits + int((v>>(exp-subBits))&(subCount-1))
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// bucketLow returns the inclusive lower bound of bucket idx.
func bucketLow(idx int) uint64 {
	if idx < firstSplit {
		return uint64(idx)
	}
	exp := idx>>subBits + subBits - 1
	return 1<<exp + uint64(idx&(subCount-1))<<(exp-subBits)
}

// bucketHigh returns the exclusive upper bound of bucket idx.
func bucketHigh(idx int) uint64 {
	if idx >= NumBuckets-1 {
		// The top bucket is open-ended; report its nominal width.
		return bucketLow(idx) * 2
	}
	return bucketLow(idx + 1)
}

// Histogram is a fixed-size log-bucketed histogram. Any number of
// goroutines may record (lock-free, allocation-free: two atomic adds)
// and snapshot concurrently. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// RecordNS adds one observation of ns nanoseconds (negative clamps to 0).
func (h *Histogram) RecordNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(uint64(ns))].Add(1)
	h.sum.Add(uint64(ns))
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.RecordNS(int64(d)) }

// AddTo accumulates the histogram's current contents into s. The read is
// race-free but not atomic across buckets; concurrent records may or may
// not be included, which is the usual monitoring contract.
func (h *Histogram) AddTo(s *HistSnapshot) {
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// HistSnapshot is an immutable copy of a histogram, mergeable with
// others and queryable for quantiles.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Sum    uint64
}

// Merge accumulates o into s.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
}

// Total returns the number of recorded observations.
func (s *HistSnapshot) Total() uint64 {
	var n uint64
	for i := range s.Counts {
		n += s.Counts[i]
	}
	return n
}

// Mean returns the mean observation in nanoseconds, 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	n := s.Total()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds by
// linear interpolation inside the covering bucket. The estimate is
// always within that bucket's bounds, so the relative error is bounded
// by the bucket width (6.25% above 32 ns, exact below).
func (s *HistSnapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic to report.
	rank := uint64(q*float64(total-1)) + 1
	var cum uint64
	for i := range s.Counts {
		c := s.Counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := float64(bucketLow(i)), float64(bucketHigh(i))
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return float64(bucketHigh(NumBuckets - 1))
}

// Recorder bundles one histogram per operation class — the latency
// state of a trace sink or of one harness worker. The zero value is
// ready to use.
type Recorder struct {
	hists [NumOpClasses]Histogram
}

// Record adds one observation of ns nanoseconds to class c.
func (r *Recorder) Record(c OpClass, ns int64) { r.hists[c].RecordNS(ns) }

// Hist returns the class's histogram (for direct Record calls).
func (r *Recorder) Hist(c OpClass) *Histogram { return &r.hists[c] }

// AddTo accumulates the recorder's contents into s.
func (r *Recorder) AddTo(s *LatencySnapshot) {
	for c := range r.hists {
		r.hists[c].AddTo(&s.Ops[c])
	}
}

// LatencySnapshot is a point-in-time copy of per-class histograms,
// mergeable across sessions and workers.
type LatencySnapshot struct {
	Ops [NumOpClasses]HistSnapshot
}

// Merge accumulates o into s.
func (s *LatencySnapshot) Merge(o *LatencySnapshot) {
	for c := range s.Ops {
		s.Ops[c].Merge(&o.Ops[c])
	}
}

// Class returns the snapshot for one operation class.
func (s *LatencySnapshot) Class(c OpClass) *HistSnapshot { return &s.Ops[c] }

// Total returns the observation count across every class.
func (s *LatencySnapshot) Total() uint64 {
	var n uint64
	for c := range s.Ops {
		n += s.Ops[c].Total()
	}
	return n
}

// Summary renders the snapshot as nested maps (class -> metric -> value,
// microseconds) for JSON/expvar surfaces. Empty classes are omitted.
func (s *LatencySnapshot) Summary() map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for c := OpClass(0); c < NumOpClasses; c++ {
		h := &s.Ops[c]
		n := h.Total()
		if n == 0 {
			continue
		}
		out[c.String()] = map[string]float64{
			"count":   float64(n),
			"mean_us": h.Mean() / 1e3,
			"p50_us":  h.Quantile(0.50) / 1e3,
			"p90_us":  h.Quantile(0.90) / 1e3,
			"p99_us":  h.Quantile(0.99) / 1e3,
			"p999_us": h.Quantile(0.999) / 1e3,
		}
	}
	return out
}
