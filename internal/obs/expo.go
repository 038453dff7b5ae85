// The Prometheus text exposition format (version 0.0.4), written, served
// and merged in one place: every /metrics body is written through Expo,
// served by MetricsHandler, and a multi-process run's rank bodies are
// merged by MergeExposition.

package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Family declares one exported metric family: its name, its type
// ("counter", "gauge" or "histogram") and its help text.
type Family struct{ Name, Type, Help string }

// Counter declares a counter family.
func Counter(name, help string) Family { return Family{name, "counter", help} }

// Gauge declares a gauge family.
func Gauge(name, help string) Family { return Family{name, "gauge", help} }

// The families exported both by the trace aggregates (labelled node) and
// by the TCP transport's wire counters (labelled rank).
var (
	HeartbeatMisses = Counter("dp_heartbeat_misses_total", "Heartbeat intervals a peer went silent past the miss threshold.")
	PeerRestarts    = Counter("dp_peer_restarts_total", "Peers that died and successfully rejoined.")
	EdgeLatency     = Family{"dp_edge_latency_seconds", "histogram", "Clock-aligned latency of cross-rank edges, send start to arrival."}
)

// Expo writes one exposition body to W. The first write error sticks:
// later calls write nothing and Err reports it, so a body is a sequence
// of calls and one check.
type Expo struct {
	W   io.Writer
	err error
}

// Err returns the first write error, or nil.
func (e *Expo) Err() error { return e.err }

func (e *Expo) line(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.W, format+"\n", args...)
	}
}

// Family writes a family's HELP and TYPE lines; all of the family's
// samples follow before the next family starts.
func (e *Expo) Family(f Family) {
	e.line("# HELP %s %s", f.Name, f.Help)
	e.line("# TYPE %s %s", f.Name, f.Type)
}

// Sample writes one sample of the family named name. labels is a label
// body without braces (Label pairs, comma-joined), empty for none; v is
// an integer or a float64.
func (e *Expo) Sample(name, labels string, v any) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	e.line("%s %v", name, v) // %v prints a float64 as %g
}

// Histogram writes f's header and s as its one series: cumulative
// buckets, sum and count, each carrying labels.
func (e *Expo) Histogram(f Family, labels string, s HistogramSnapshot) {
	e.Family(f)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		var le any = "+Inf"
		if i < len(s.Bounds) {
			le = s.Bounds[i]
		}
		e.Sample(f.Name+"_bucket", strings.TrimPrefix(labels+","+Label("le", le), ","), cum)
	}
	e.Sample(f.Name+"_sum", labels, s.SumSeconds)
	e.Sample(f.Name+"_count", labels, s.Count)
}

// Label renders one label pair, key="v", for a sample's label body.
func Label(key string, v any) string { return fmt.Sprintf("%s=%q", key, fmt.Sprint(v)) }

// MetricsHandler serves the body metrics writes as a /metrics endpoint.
func MetricsHandler(metrics func(w io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// MergeExposition merges the exposition bodies of a run's ranks, given
// in rank order, into one: each family once, with the first HELP and
// TYPE lines seen for it, then every rank's samples in rank order. A
// sample belongs to the family whose HELP/TYPE lines precede it in its
// body, so a histogram's _bucket, _sum and _count samples stay with it.
// Ranks label their own samples, so no sample is rewritten; other
// comment lines are dropped.
func MergeExposition(bodies []string) string {
	var order []string             // family names, in order of first appearance
	lines := map[string][]string{} // family name -> its merged lines
	seen := map[string]bool{}      // "HELP name" and "TYPE name" already kept
	for _, body := range bodies {
		cur := "" // the family of the body's last HELP or TYPE line
		for _, line := range strings.Split(body, "\n") {
			f := strings.Fields(line)
			name := cur
			switch {
			case len(f) >= 3 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE"):
				name, cur = f[2], f[2]
				if seen[f[1]+" "+name] {
					continue
				}
				seen[f[1]+" "+name] = true
			case len(f) == 0 || f[0][0] == '#':
				continue
			case cur == "":
				name, _, _ = strings.Cut(f[0], "{")
			}
			if _, ok := lines[name]; !ok {
				order = append(order, name)
			}
			lines[name] = append(lines[name], line)
		}
	}
	var sb strings.Builder
	for _, name := range order {
		for _, line := range lines[name] {
			sb.WriteString(line + "\n")
		}
	}
	return sb.String()
}
