package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Vars is the pull-based data source behind a debug server. Any field
// may be nil; the corresponding surface is simply absent.
type Vars struct {
	// Counters returns monotonic counters; /debug/stats derives
	// "<name>_per_sec" rates from their deltas between reads.
	Counters func() map[string]uint64
	// Gauges returns point-in-time values (ratios, utilizations).
	Gauges func() map[string]float64
	// Latency returns the current latency snapshot.
	Latency func() *LatencySnapshot
	// Shape returns structural statistics (tree shape and base-node
	// memory footprint). Served on demand at /debug/shape only — the
	// underlying tree walk is too expensive for every /debug/stats read.
	Shape func() map[string]any
	// Trace drains the structural events. Draining is destructive, so
	// the /debug/trace endpoint consumes events.
	Trace func() []Event
	// TraceDropped returns the cumulative wraparound-loss count.
	TraceDropped func() uint64
	// MetricHists returns histogram feeds rendered as summaries on
	// /metrics (WAL fsync latency, chain-depth distribution, ...).
	MetricHists func() []HistFeed
	// Flight returns the newest n flight-recorder op summaries across
	// sessions (all when n <= 0), oldest first. Non-destructive; backs
	// /debug/flightrec.
	Flight func(n int) []OpSummary
	// PhaseTraces drains the sampled per-op phase traces (destructive);
	// /debug/phasetrace serves them as Chrome trace-event JSON.
	PhaseTraces func() []OpTrace
}

// Server is a live debug surface: Go's standard expvar vars at
// /debug/vars, pprof under /debug/pprof/, and JSON endpoints for stats,
// latency quantiles, and the event trace.
type Server struct {
	srv     *http.Server
	ln      net.Listener
	closeOn sync.Once
}

// Serve starts a debug server on addr (host:port; port 0 picks a free
// one) backed by v.
func Serve(addr string, v Vars) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Mux(v)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error {
	var err error
	s.closeOn.Do(func() { err = s.srv.Close() })
	return err
}

// rates turns monotonic counters into per-second rates when they are
// read: each read reports the deltas since the previous one.
type rates struct {
	mu     sync.Mutex
	prev   map[string]uint64
	prevAt time.Time
}

// read returns "<name>_per_sec" for every counter in cur, measured since
// the previous read (empty on the first), and makes cur the new base.
func (r *rates) read(cur map[string]uint64, now time.Time) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(cur))
	if dt := now.Sub(r.prevAt).Seconds(); r.prev != nil && dt > 0 {
		for k, v := range cur {
			out[k+"_per_sec"] = float64(v-r.prev[k]) / dt
		}
	}
	r.prev, r.prevAt = cur, now
	return out
}

// Mux builds the debug request router; exposed separately so servers
// embedding the surface into an existing listener can mount it.
func Mux(v Vars) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	writeJSON := func(w http.ResponseWriter, val any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(val)
	}
	rt := &rates{}
	if v.Counters != nil {
		// The first /debug/stats read reports rates since the mux was built.
		rt.read(v.Counters(), time.Now())
	}
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{}
		if v.Counters != nil {
			c := v.Counters()
			out["counters"] = c
			out["rates"] = rt.read(c, time.Now())
		}
		if v.Gauges != nil {
			out["gauges"] = v.Gauges()
		}
		if v.Latency != nil {
			if snap := v.Latency(); snap != nil {
				out["latency"] = snap.Summary()
			}
		}
		if v.TraceDropped != nil {
			out["trace_dropped"] = v.TraceDropped()
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/latency", func(w http.ResponseWriter, r *http.Request) {
		if v.Latency == nil {
			http.Error(w, "latency histograms disabled", http.StatusNotFound)
			return
		}
		snap := v.Latency()
		if snap == nil {
			http.Error(w, "latency histograms disabled", http.StatusNotFound)
			return
		}
		writeJSON(w, snap.Summary())
	})
	mux.HandleFunc("/debug/shape", func(w http.ResponseWriter, r *http.Request) {
		if v.Shape == nil {
			http.Error(w, "shape statistics unavailable", http.StatusNotFound)
			return
		}
		writeJSON(w, v.Shape())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if v.Trace == nil {
			http.Error(w, "event tracing disabled", http.StatusNotFound)
			return
		}
		events := v.Trace()
		if n := intQuery(r, "n"); n > 0 && n < len(events) {
			events = events[len(events)-n:]
		}
		resp := map[string]any{"events": events}
		if v.TraceDropped != nil {
			resp["dropped"] = v.TraceDropped()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, v)
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		if v.Flight == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		ops := v.Flight(intQuery(r, "n"))
		writeJSON(w, map[string]any{"ops": ops, "count": len(ops)})
	})
	mux.HandleFunc("/debug/phasetrace", func(w http.ResponseWriter, r *http.Request) {
		if v.PhaseTraces == nil {
			http.Error(w, "phase sampling disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, v.PhaseTraces())
	})
	mux.HandleFunc("/debug", func(w http.ResponseWriter, r *http.Request) {
		paths := []string{
			"/debug/vars", "/debug/stats", "/debug/latency", "/debug/shape",
			"/debug/trace", "/debug/flightrec", "/debug/phasetrace",
			"/debug/pprof/", "/metrics",
		}
		sort.Strings(paths)
		w.Header().Set("Content-Type", "text/plain")
		for _, p := range paths {
			fmt.Fprintln(w, p)
		}
	})
	return mux
}

func intQuery(r *http.Request, key string) int {
	var n int
	fmt.Sscanf(r.URL.Query().Get(key), "%d", &n)
	return n
}
