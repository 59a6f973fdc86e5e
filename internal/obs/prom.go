package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition rendering for the /metrics endpoint, plus a
// strict parser used by tests and the CI smoke job to prove the output
// is machine-readable. Counters become *_total counters, gauges become
// gauges, and histograms (per-class latency plus any HistFeeds) are
// rendered as summaries with fixed quantiles — our log-bucketed
// histograms have 512 buckets, far too many to expose as a native
// Prometheus histogram.

// HistFeed is one histogram exposed on /metrics as a summary.
type HistFeed struct {
	// Name is the full metric name, e.g. "bwtree_wal_fsync_seconds".
	Name string
	// Help is the one-line HELP text.
	Help string
	// Seconds marks the recorded values as nanoseconds to be rendered in
	// seconds (the Prometheus base unit); false renders raw values.
	Seconds bool
	Snap    HistSnapshot
}

var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999},
}

// promName sanitizes s into a valid Prometheus metric-name fragment.
func promName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && r >= '0' && r <= '9'
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSummary(w io.Writer, name, help string, labels string, snap *HistSnapshot, seconds bool) {
	scale := 1.0
	if seconds {
		scale = 1e-9
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, pq := range promQuantiles {
		sep := "{"
		if labels != "" {
			sep = "{" + labels + ","
		}
		fmt.Fprintf(w, "%s%squantile=%q} %s\n", name, sep, pq.label,
			promFloat(snap.Quantile(pq.q)*scale))
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, promFloat(float64(snap.Sum)*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, snap.Total())
}

// WritePrometheus renders v to w in the Prometheus text exposition
// format, namespaced under bwtree_. Rates are left to the scraper:
// rate() over the *_total counters.
func WritePrometheus(w io.Writer, v Vars) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	if v.Counters != nil {
		c := v.Counters()
		names := make([]string, 0, len(c))
		for k := range c {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			n := "bwtree_" + promName(k) + "_total"
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", n, n, c[k])
		}
	}
	if v.Gauges != nil {
		g := v.Gauges()
		names := make([]string, 0, len(g))
		for k := range g {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			n := "bwtree_" + promName(k)
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(g[k]))
		}
	}
	if v.Latency != nil {
		if snap := v.Latency(); snap != nil {
			name := "bwtree_op_latency_seconds"
			for c := OpClass(0); c < NumOpClasses; c++ {
				h := snap.Class(c)
				if h.Total() == 0 {
					continue
				}
				writeSummary(bw, name, "per-operation latency by class",
					fmt.Sprintf("class=%q", c.String()), h, true)
			}
		}
	}
	if v.MetricHists != nil {
		for _, f := range v.MetricHists() {
			if f.Snap.Total() == 0 {
				continue
			}
			writeSummary(bw, promName(f.Name), f.Help, "", &f.Snap, f.Seconds)
		}
	}
}

// ParsePrometheus is a strict validator for the text exposition format:
// it checks every line is a well-formed comment or sample and returns
// the number of samples. It exists so tests and the CI smoke job can
// prove /metrics output is parseable without a prometheus dependency.
func ParsePrometheus(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "TYPE ") {
				f := strings.Fields(rest)
				if len(f) != 3 || !validPromName(f[1]) || !validPromType(f[2]) {
					return samples, fmt.Errorf("line %d: malformed TYPE comment: %q", lineNo, line)
				}
			}
			// HELP and free comments are unconstrained.
			continue
		}
		if err := validSample(line); err != nil {
			return samples, fmt.Errorf("line %d: %v: %q", lineNo, err, line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	return samples, nil
}

func validPromType(t string) bool {
	switch t {
	case "counter", "gauge", "summary", "histogram", "untyped":
		return true
	}
	return false
}

func validPromName(n string) bool {
	if n == "" {
		return false
	}
	for i, r := range n {
		ok := r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// validSample checks one sample line: name[{labels}] value [timestamp].
func validSample(line string) error {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return fmt.Errorf("missing metric name or value")
	}
	if !validPromName(line[:i]) {
		return fmt.Errorf("invalid metric name")
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := scanLabels(rest)
		if err != nil {
			return err
		}
		rest = rest[end:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return fmt.Errorf("missing value separator")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("expected value and optional timestamp")
	}
	switch fields[0] {
	case "NaN", "+Inf", "-Inf", "Inf":
	default:
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			return fmt.Errorf("invalid value %q", fields[0])
		}
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return nil
}

// scanLabels validates a {name="value",...} block starting at s[0]=='{'
// and returns the index just past the closing brace.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// label name
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) || !validPromName(s[start:i]) {
			return 0, fmt.Errorf("invalid label name")
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted")
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
