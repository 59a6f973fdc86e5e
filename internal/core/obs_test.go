package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// TestPointerChasesAfterChainedRead verifies the pointerChases counter is
// actually wired through the delta-chain walk: a lookup that traverses a
// non-empty chain must bump it.
func TestPointerChasesAfterChainedRead(t *testing.T) {
	opts := DefaultOptions()
	// Long chain limits so the deltas survive until we read them.
	opts.LeafChainLength = 64
	opts.InnerChainLength = 64
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	// Stack insert deltas on one leaf (the limits above defer
	// consolidation), then read the oldest key: the seek must walk past
	// every newer delta to reach it, chasing a pointer per hop.
	for i := uint64(0); i < 20; i++ {
		if !s.Insert(key64(i), i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if got := s.Lookup(key64(0), nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("lookup got %v, want [0]", got)
	}
	if st := tr.Stats(); st.PointerChases == 0 {
		t.Fatal("PointerChases = 0 after reading a chained leaf; counter not wired")
	}
}

// TestStatsConcurrentWithWrites calls Stats while writers are mutating
// counters. Under -race this fails if any counter is read non-atomically.
func TestStatsConcurrentWithWrites(t *testing.T) {
	tr := New(DefaultOptions())
	defer tr.Close()

	const workers = 4
	const perWorker = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			base := uint64(w) * perWorker
			for i := uint64(0); i < perWorker; i++ {
				s.Insert(key64(base+i), i)
				s.Lookup(key64(base+i), nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			st := tr.Stats()
			_ = st.AbortRate()
		}
	}()
	wg.Wait()
	<-done

	st := tr.Stats()
	if want := uint64(workers * perWorker * 2); st.Ops != want {
		t.Fatalf("Ops = %d, want %d", st.Ops, want)
	}
	if st.PointerChases == 0 {
		t.Fatal("PointerChases = 0 after chained reads")
	}
}

// TestLatencyHistograms verifies the latency histograms Options.Trace
// turns on: traced trees report per-class counts and quantiles (none
// under -tags notrace, which compiles the per-op records out), untraced
// trees report nil.
func TestLatencyHistograms(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()

	const n = 1000
	for i := uint64(0); i < n; i++ {
		s.Insert(key64(i), i)
	}
	for i := uint64(0); i < n; i++ {
		s.Lookup(key64(i), nil)
	}
	s.Scan(key64(0), 100, func([]byte, uint64) bool { return true })

	recorded := func(ops uint64) uint64 {
		if deepProbes {
			return ops
		}
		return 0
	}
	// Live sessions must be visible...
	snap := tr.Latencies()
	if snap == nil {
		t.Fatal("Latencies() = nil with Trace on")
	}
	if got := snap.Class(obs.OpInsert).Total(); got != recorded(n) {
		t.Fatalf("insert latency count = %d, want %d", got, recorded(n))
	}
	if got := snap.Class(obs.OpRead).Total(); got != recorded(n) {
		t.Fatalf("read latency count = %d, want %d", got, recorded(n))
	}
	if got := snap.Class(obs.OpScan).Total(); got != recorded(1) {
		t.Fatalf("scan latency count = %d, want %d", got, recorded(1))
	}
	if p99 := snap.Class(obs.OpRead).Quantile(0.99); deepProbes && p99 <= 0 {
		t.Fatalf("read p99 = %v, want > 0", p99)
	}

	// ...and so must released sessions, whose records stay in the sinks.
	s.Release()
	snap = tr.Latencies()
	if got := snap.Total(); got != recorded(2*n+1) {
		t.Fatalf("total after release = %d, want %d", got, recorded(2*n+1))
	}
	if _, ok := snap.Summary()["insert"]; deepProbes && !ok {
		t.Fatal("summary missing insert class")
	}

	// Off by default: nil snapshot, near-zero overhead path.
	tr2 := New(DefaultOptions())
	defer tr2.Close()
	if tr2.Latencies() != nil {
		t.Fatal("Latencies() non-nil with Trace off")
	}
}

// TestTraceEvents churns a tiny-node tree so SMOs fire, draining the
// event rings often enough that none wraps, then checks the drained
// stream is ordered and contains the structural kinds, and that events,
// phase traces and flight entries draw Seq from one counter.
func TestTraceEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 8
	opts.InnerNodeSize = 4
	opts.LeafChainLength = 4
	opts.InnerChainLength = 2
	opts.Trace = true
	tr := New(opts)
	defer tr.Close()
	s := tr.NewSession()
	defer s.Release()

	var events []obs.Event
	for i := uint64(0); i < 2000; i++ {
		s.Insert(key64(i), i)
		if i%100 == 99 {
			events = append(events, tr.TraceEvents()...)
		}
	}
	if len(events) == 0 || tr.TraceDropped() != 0 {
		t.Fatalf("%d trace events drained and %d dropped after SMO churn", len(events), tr.TraceDropped())
	}
	kinds := map[obs.EventKind]int{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("trace not ordered: seq %d after %d", ev.Seq, events[i-1].Seq)
		}
	}
	if kinds[obs.EvSplit] == 0 {
		t.Fatal("no split events despite tiny nodes")
	}
	if kinds[obs.EvConsolidate] == 0 {
		t.Fatal("no consolidate events despite short chains")
	}

	traces, flight := tr.PhaseTraces(), tr.FlightRecent(0)
	if deepProbes && (len(traces) == 0 || len(flight) == 0) {
		t.Fatalf("%d phase traces and %d flight entries after 2000 traced ops", len(traces), len(flight))
	}
	// Each stream strictly increases, and no Seq appears in two records.
	seen := map[uint64]bool{}
	last := map[string]uint64{}
	note := func(kind string, seq uint64) {
		if seq <= last[kind] || seen[seq] {
			t.Fatalf("%s seq %d: previous %s seq %d, reused %v", kind, seq, kind, last[kind], seen[seq])
		}
		last[kind], seen[seq] = seq, true
	}
	for _, ev := range events {
		note("event", ev.Seq)
	}
	for _, tc := range traces {
		note("trace", tc.Seq)
	}
	for _, f := range flight {
		note("flight", f.Seq)
	}

	// Off by default.
	tr2 := New(DefaultOptions())
	defer tr2.Close()
	if tr2.TraceEvents() != nil {
		t.Fatal("TraceEvents non-nil with Trace off")
	}
}

// TestIdleTreeEmitsNoEvents checks that the trace carries only what
// operations did: a tree nobody touches records nothing, however many
// epochs its GC goroutine advances in the background.
func TestIdleTreeEmitsNoEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	opts.GCInterval = time.Millisecond
	tr := New(opts)
	defer tr.Close()
	time.Sleep(50 * opts.GCInterval)
	if tr.Stats().GC.Advances == 0 {
		t.Fatal("GC never advanced; the test would prove nothing")
	}
	if evs := tr.TraceEvents(); len(evs) != 0 {
		t.Fatalf("idle tree traced %d events, want 0; first: %+v", len(evs), evs[0])
	}
}

// heapInUse returns the live heap after a full collection.
func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTracedSessionsHeapBounded opens 1000 sessions at once on a traced
// tree and on an untraced one, then releases them. Tracing may keep at
// most the sinks it built (2×GOMAXPROCS at most, however many sessions
// came and went) plus 64 KB, and a live traced session may cost at most
// 1 KB beyond an untraced one.
func TestTracedSessionsHeapBounded(t *testing.T) {
	if !deepProbes {
		t.Skip("-tags notrace: the pipeline records no phase traces")
	}
	const sessions = 1000
	// A sink's three ring buffers and its histograms, each allocation
	// rounded up to the 8 KB page the heap hands large objects.
	page := func(n uintptr) int64 { return int64((n + 8191) &^ 8191) }
	var ev obs.Event
	var tc obs.OpTrace
	var fl obs.OpSummary
	var h obs.Histogram
	var r obs.Recorder
	sinkBytes := page(unsafe.Sizeof(h)+unsafe.Sizeof(r)+256) +
		page(obs.RingSize*unsafe.Sizeof(ev)) + page(obs.RingSize*unsafe.Sizeof(tc)) +
		page(obs.RingSize*unsafe.Sizeof(fl))
	sinks := int64(min(sessions, 2*runtime.GOMAXPROCS(0)))

	measure := func(trace bool) (live, kept int64) {
		opts := DefaultOptions()
		opts.Trace = trace
		tr := New(opts)
		defer tr.Close()
		base := heapInUse()
		ss := make([]*Session, sessions)
		for i := range ss {
			ss[i] = tr.NewSession()
			ss[i].Lookup(key64(uint64(i)), nil)
		}
		live = heapInUse() - base
		for _, s := range ss {
			s.Release()
		}
		clear(ss)
		kept = heapInUse() - base
		if trace && len(tr.FlightRecent(0)) == 0 {
			t.Fatal("released sessions left no flight entries in the sinks")
		}
		return live, kept
	}
	plainLive, plainKept := measure(false)
	traceLive, traceKept := measure(true)
	var p obs.Probe
	perSession := (traceLive - plainLive - sinks*sinkBytes) / sessions
	t.Logf("handle %d B; %d sinks of %d B; live %d B traced vs %d B untraced (%d B per traced session beyond the sinks); kept %d B vs %d B",
		unsafe.Sizeof(p), sinks, sinkBytes, traceLive, plainLive, perSession, traceKept, plainKept)
	if limit := sinks*sinkBytes + 64<<10; traceKept-plainKept > limit {
		t.Fatalf("tracing kept %d B after %d sessions were released, want at most %d (%d sinks of %d B + 64 KB)",
			traceKept-plainKept, sessions, limit, sinks, sinkBytes)
	}
	if perSession > 1<<10 {
		t.Fatalf("a live traced session costs %d B beyond an untraced one, want at most 1 KB", perSession)
	}
}

// TestSharedSinksUnderDrain runs more sessions than there are sinks,
// each on its own goroutine, while a reader drains and copies the sinks
// the way the /debug endpoints do. Under -race it checks that sharing a
// sink needs no locking beyond the rings'; the accounting checks that
// every latency landed once and every sampled trace was either drained
// once or counted as dropped.
func TestSharedSinksUnderDrain(t *testing.T) {
	opts := DefaultOptions()
	opts.LeafNodeSize = 16
	opts.InnerNodeSize = 8
	opts.Trace = true
	tr := New(opts)
	defer tr.Close()
	workers := 2*2*runtime.GOMAXPROCS(0) + 1
	const perWorker = 200 // keys per worker; four ops each
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.NewSession()
			defer s.Release()
			for i := 0; i < perWorker; i++ {
				k := key64(uint64(w*perWorker + i))
				s.Insert(k, 1)
				s.Lookup(k, nil)
				s.Update(k, 2)
				s.Scan(k, 4, func([]byte, uint64) bool { return true })
			}
		}(w)
	}
	stop := make(chan struct{})
	drained := make(chan []obs.OpTrace)
	go func() {
		var traces []obs.OpTrace
		for {
			select {
			case <-stop:
				drained <- append(traces, tr.PhaseTraces()...)
				return
			default:
			}
			traces = append(traces, tr.PhaseTraces()...)
			tr.TraceEvents()
			tr.FlightRecent(64)
			tr.Latencies()
			tr.ChainDepths()
		}
	}()
	wg.Wait()
	close(stop)
	traces := <-drained

	ops := uint64(workers * perWorker * 4)
	if !deepProbes {
		ops = 0
	}
	if got := tr.Latencies().Total(); got != ops {
		t.Fatalf("latency histograms hold %d observations, want %d", got, ops)
	}
	sampled := ops / uint64(workers) / obs.SampleEvery * uint64(workers)
	if got := uint64(len(traces)) + tr.PhaseTracesDropped(); got != sampled {
		t.Fatalf("%d traces drained + %d dropped, want %d sampled", len(traces), tr.PhaseTracesDropped(), sampled)
	}
	seen := map[uint64]bool{}
	tids := map[int32]bool{}
	for _, tc := range traces {
		if seen[tc.Seq] {
			t.Fatalf("trace seq %d drained twice", tc.Seq)
		}
		seen[tc.Seq] = true
		tids[tc.Worker] = true
	}
	if len(tids) > workers {
		t.Fatalf("traces carry %d tids from %d sessions", len(tids), workers)
	}
}
