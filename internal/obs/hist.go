// A small concurrency-safe fixed-bucket histogram, used for the
// cross-rank edge-latency distribution (dp_edge_latency_seconds). The
// TCP transport observes one sample per received DATA frame from its
// reader goroutines, and the live /metrics endpoint snapshots it while
// the run is in flight — hence the atomic counters.

package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefaultLatencyBounds are the bucket upper bounds (seconds) used for
// edge-latency histograms: 10µs to ~2.6s in ×4 steps, a range that
// covers loopback pipes to congested WAN links.
var DefaultLatencyBounds = []float64{
	10e-6, 40e-6, 160e-6, 640e-6, 2.56e-3, 10.24e-3, 40.96e-3, 163.84e-3, 655.36e-3, 2.62144,
}

// Histogram is a concurrency-safe histogram of durations with fixed
// bucket bounds in seconds. The zero value is not usable; create one
// with NewHistogram.
type Histogram struct {
	bounds []float64 // upper bounds, seconds, ascending
	counts []atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket
// upper bounds in seconds (DefaultLatencyBounds when none are given).
// An implicit +Inf bucket is always present.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ObserveNs records one sample of ns nanoseconds (negative samples are
// clamped to zero: clock-offset error can make a fast cross-rank edge
// appear to arrive before it was sent).
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	sec := float64(ns) / 1e9
	i := 0
	for i < len(h.bounds) && sec > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Snapshot returns a consistent-enough copy for exposition (buckets are
// read one by one; a scrape during heavy traffic can be off by the few
// samples in flight, which Prometheus semantics tolerate).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumSeconds = float64(h.sumNs.Load()) / 1e9
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram, also the form
// histograms take in JSON stats and merged-trace reports.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one
	// extra entry for the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Count and SumSeconds are the total sample count and sum.
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sumSeconds"`
}

// Merge adds another snapshot with identical bounds into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(o.Bounds) != len(s.Bounds) || len(o.Counts) != len(s.Counts) {
		return fmt.Errorf("obs: merging histograms with different bucket layouts")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.SumSeconds += o.SumSeconds
	return nil
}

// Quantile returns an upper-bound estimate of the q-quantile (0..1) in
// seconds: the upper bound of the bucket the quantile falls in (+Inf
// reported as the largest finite bound). Zero when the histogram is
// empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}
