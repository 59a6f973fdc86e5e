package obs

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export: renders sampled OpTraces in the JSON object
// format understood by chrome://tracing and Perfetto. Each operation
// becomes one complete ("X") event on (pid 1, tid = session id), with its
// recorded phases as nested complete events; chain length, CaS retries,
// and abort counts ride along as args. Timestamps are microseconds since
// process start (obs.Now / 1000), so spans line up across sessions.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders traces (as drained from a Deep) to w as
// Chrome trace-event JSON. The export path allocates freely; it runs
// offline, never on the hot path.
func WriteChromeTrace(w io.Writer, traces []OpTrace) error {
	out := chromeTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "bwtree"},
	})
	seenTID := map[int]bool{}
	for _, t := range traces {
		tid := int(t.Worker)
		if !seenTID[tid] {
			seenTID[tid] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": "session"},
			})
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: t.Class.String(),
			Cat:  "op",
			Ph:   "X",
			TS:   float64(t.Start) / 1e3,
			Dur:  float64(t.Dur) / 1e3,
			PID:  1,
			TID:  tid,
			Args: map[string]any{
				"seq":         t.Seq,
				"chain_len":   t.ChainLen,
				"cas_retries": t.CASRetries,
				"aborts":      t.Aborts,
			},
		})
		for i := int32(0); i < t.NSpans; i++ {
			sp := t.Spans[i]
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.Phase.String(),
				Cat:  "phase",
				Ph:   "X",
				TS:   float64(sp.Start) / 1e3,
				Dur:  float64(sp.Dur) / 1e3,
				PID:  1,
				TID:  tid,
				Args: map[string]any{"arg": sp.Arg, "op_seq": t.Seq},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
