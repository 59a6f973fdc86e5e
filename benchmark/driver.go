package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// stepFn issues one request and waits for its reply (closed loop). It
// returns the operations the request carried and how many of them failed
// or returned a wrong result.
type stepFn func() (ops, failed int)

// window is one measured interval: a warm-up, then nseg segments of seg
// each. Only every-th request is timed, so that timer calls do not
// dominate sub-microsecond in-process operations.
type window struct {
	warm, seg time.Duration
	nseg      int
	every     int
}

const nSegments = 5

// newWindow cuts d into nSegments segments behind a warm-up of a fifth of d,
// at most two seconds.
func newWindow(d time.Duration, every int) window {
	warm := d / 5
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return window{warm: warm, seg: d / nSegments, nseg: nSegments, every: every}
}

type segment struct {
	ops, failed uint64
	lat         []int64 // ns, one per timed request
}

// drive runs one closed-loop worker per step function through win and
// returns each worker's segments. onSegment, when set, is called by the
// worker that crosses into segment seg > 0 before its next request.
// recs, when set, are the workers' span buffers: they record only inside
// the measured segments and learn each request's ordinal.
func drive(steps []stepFn, win window, onSegment func(w, seg int), recs []*spanBuf) [][]segment {
	out := make([][]segment, len(steps))
	t0 := time.Now().Add(win.warm)
	var wg sync.WaitGroup
	for w := range steps {
		segs := make([]segment, win.nseg)
		for s := range segs {
			segs[s].lat = make([]int64, 0, 1<<14)
		}
		out[w] = segs
		wg.Add(1)
		go func(w int, step stepFn) {
			defer wg.Done()
			var rec *spanBuf
			if recs != nil {
				rec = recs[w]
			}
			cur := -1
			var ops, failed uint64 // carried by untimed requests since the last timed one
			for i := 0; ; i++ {
				if rec != nil {
					rec.op = uint32(i)
				}
				if i%win.every != 0 {
					n, f := step()
					ops, failed = ops+uint64(n), failed+uint64(f)
					continue
				}
				t1 := time.Now()
				n, f := step()
				t2 := time.Now()
				ops, failed = ops+uint64(n), failed+uint64(f)
				s := -1
				if d := t2.Sub(t0); d >= 0 {
					s = int(d / win.seg)
				}
				if s >= win.nseg {
					return
				}
				if s >= 0 {
					segs[s].ops += ops
					segs[s].failed += failed
					segs[s].lat = append(segs[s].lat, int64(t2.Sub(t1)))
				}
				ops, failed = 0, 0
				if s != cur {
					cur = s
					if rec != nil {
						rec.on = true
					}
					if onSegment != nil && s > 0 {
						onSegment(w, s)
					}
				}
			}
		}(w, steps[w])
	}
	wg.Wait()
	return out
}

// summary is what a window measured: per-segment rates and percentiles and
// their medians. A burst from a noisy neighbour spoils one segment, not
// the median of five.
type summary struct {
	Rates, P50s, P99s []float64 // per segment: 1/s, us, us
	Rate, P50, P99    float64   // medians of the above
	Ops, Failed       uint64
	SamplesMin        int // fewest timed requests in any segment
}

// summarize folds the workers' segments. tail is time spent after the last
// request that the last segment's work still had to wait for (a final log
// sync), so it lengthens that segment.
func summarize(per [][]segment, win window, tail time.Duration) summary {
	var sm summary
	sm.SamplesMin = math.MaxInt
	for s := 0; s < win.nseg; s++ {
		var ops uint64
		var lat []int64
		for w := range per {
			ops += per[w][s].ops
			sm.Failed += per[w][s].failed
			lat = append(lat, per[w][s].lat...)
		}
		sm.Ops += ops
		d := win.seg
		if s == win.nseg-1 {
			d += tail
		}
		sm.Rates = append(sm.Rates, float64(ops)/d.Seconds())
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sm.P50s = append(sm.P50s, quantileUS(lat, 0.50))
		sm.P99s = append(sm.P99s, quantileUS(lat, 0.99))
		if len(lat) < sm.SamplesMin {
			sm.SamplesMin = len(lat)
		}
	}
	sm.Rate, sm.P50, sm.P99 = median(sm.Rates), median(sm.P50s), median(sm.P99s)
	return sm
}

// quantileUS reads quantile q from sorted nanosecond samples, in
// microseconds; 0 when there are none.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runCount issues exactly n requests per worker, untimed, and returns the
// totals and the wall time: the window that counters are read across, so
// that with one client a count per request repeats exactly.
func runCount(steps []stepFn, n int) (ops, failed uint64, d time.Duration) {
	type tally struct{ ops, failed uint64 }
	per := make([]tally, len(steps))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range steps {
		wg.Add(1)
		go func(w int, step stepFn) {
			defer wg.Done()
			var t tally // local, so the workers do not share a cache line
			for i := 0; i < n; i++ {
				o, f := step()
				t.ops += uint64(o)
				t.failed += uint64(f)
			}
			per[w] = t
		}(w, steps[w])
	}
	wg.Wait()
	d = time.Since(start)
	for _, t := range per {
		ops, failed = ops+t.ops, failed+t.failed
	}
	return ops, failed, d
}
