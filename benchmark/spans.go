package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark's own files around the calls into
// each layer's public functions; spans inside the program are a later
// change. They live in memory and are written once, at exit, as Chrome
// trace-event JSON. A nil *spans records nothing, which is how the
// timed pass runs.

type spanID int

const noSpan spanID = -1

type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     spanID
	round      int
}

type spans struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	round    int
	recs     []span
}

func newSpans(workload string) *spans {
	return &spans{origin: time.Now(), workload: workload, round: -1}
}

// setRound tags the spans begun from now on with a round number
// (-1 outside rounds: set-up and probes).
func (s *spans) setRound(r int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.round = r
	s.mu.Unlock()
}

func (s *spans) begin(name string, parent spanID) spanID {
	if s == nil {
		return noSpan
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, span{name: name, start: time.Since(s.origin), end: -1, parent: parent, round: s.round})
	return spanID(len(s.recs) - 1)
}

func (s *spans) end(id spanID) {
	if s == nil || id == noSpan {
		return
	}
	s.mu.Lock()
	s.recs[id].end = time.Since(s.origin)
	s.mu.Unlock()
}

// ms lists the durations, in milliseconds, of the finished spans with
// the given name.
func (s *spans) ms(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, r := range s.recs {
		if r.name == name && r.end >= 0 {
			out = append(out, float64(r.end-r.start)/1e6)
		}
	}
	return out
}

// selfMS is the self time of the spans with the given name, summed, in
// milliseconds: each span's duration minus the part of it that its
// child spans cover (children of concurrent ranks may overlap, so the
// covered part is the union of their intervals).
func (s *spans) selfMS(name string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[spanID][]span{}
	for _, r := range s.recs {
		if r.parent != noSpan && r.end >= 0 {
			children[r.parent] = append(children[r.parent], r)
		}
	}
	var self time.Duration
	for id, r := range s.recs {
		if r.name != name || r.end < 0 {
			continue
		}
		kids := children[spanID(id)]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := time.Duration(0), r.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, r.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self += r.end - r.start - covered
	}
	return float64(self) / 1e6
}

// writeChrome writes the finished spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Spans that overlap without nesting —
// the two ranks of the TCP workload — are placed on separate rows.
func (s *spans) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	s.mu.Lock()
	recs := append([]span(nil), s.recs...)
	s.mu.Unlock()
	order := make([]int, 0, len(recs))
	for i, r := range recs {
		if r.end >= 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].start < recs[order[b]].start })
	var rows [][]span // per row, the stack of spans still open
	events := make([]event, 0, len(order))
	for _, i := range order {
		r := recs[i]
		row := -1
		for k := range rows {
			for len(rows[k]) > 0 && rows[k][len(rows[k])-1].end <= r.start {
				rows[k] = rows[k][:len(rows[k])-1]
			}
			if len(rows[k]) == 0 || rows[k][len(rows[k])-1].end >= r.end {
				row = k
				break
			}
		}
		if row < 0 {
			rows = append(rows, nil)
			row = len(rows) - 1
		}
		rows[row] = append(rows[row], r)
		events = append(events, event{
			Name: r.name, Ph: "X", Pid: 1, Tid: row,
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Args: map[string]any{"id": i, "parent": int(r.parent), "workload": s.workload, "round": r.round},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
