package obs

import (
	"errors"
	"regexp"
	"strings"
	"testing"
)

// expoFamilies walks an exposition body and returns, line by line, the
// family each line belongs to: a HELP or TYPE line's named family, a
// sample's metric name, or for a histogram's _bucket/_sum/_count
// samples the histogram declared above them.
func expoFamilies(body string) (lines, fams []string) {
	hist := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var fam string
		if strings.HasPrefix(line, "# ") {
			f := strings.Fields(line)
			fam = f[2]
			if f[1] == "TYPE" && f[3] == "histogram" {
				hist[fam] = true
			}
		} else {
			fam = strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suffix); hist[base] {
					fam = base
				}
			}
		}
		lines = append(lines, line)
		fams = append(fams, fam)
	}
	return lines, fams
}

var rankLabel = regexp.MustCompile(`rank="(\d+)"`)

// TestMergeExpositionByFamily merges two rank bodies of three families
// each — a counter, a gauge and a histogram — and wants every family
// once: its HELP and TYPE lines a single time, then all of its samples
// as one contiguous group, rank 0's before rank 1's.
func TestMergeExpositionByFamily(t *testing.T) {
	body := func(rank int) string {
		var sb strings.Builder
		e := Expo{W: &sb}
		r := Label("rank", rank)
		e.Family(Counter("dp_a_total", "A counter."))
		e.Sample("dp_a_total", r, rank+1)
		e.Sample("dp_a_total", r+","+Label("peer", 1-rank), 7)
		e.Family(Gauge("dp_b", "A gauge."))
		e.Sample("dp_b", r, 0.5*float64(rank))
		h := NewHistogram(1e-3, 1e-2)
		h.ObserveNs(int64(rank) * 5e6)
		e.Histogram(Family{"dp_c_seconds", "histogram", "A histogram."}, r, h.Snapshot())
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	text := MergeExposition([]string{body(0), body(1)})
	for _, fam := range []string{"dp_a_total", "dp_b", "dp_c_seconds"} {
		for _, kind := range []string{"# HELP ", "# TYPE "} {
			if n := strings.Count(text, kind+fam+" "); n != 1 {
				t.Errorf("%q appears %d times, want once:\n%s", kind+fam, n, text)
			}
		}
	}
	lines, fams := expoFamilies(text)
	if want := 2*8 + 6; len(lines) != want {
		t.Errorf("merged body has %d lines, want %d (8 samples per rank, 6 header lines):\n%s", len(lines), want, text)
	}
	done := map[string]bool{}
	lastRank := map[string]string{}
	for i, line := range lines {
		if i > 0 && fams[i] != fams[i-1] {
			done[fams[i-1]] = true
			if done[fams[i]] {
				t.Errorf("family %s resumes at line %d %q after another family:\n%s", fams[i], i, line, text)
			}
		}
		if m := rankLabel.FindStringSubmatch(line); m != nil {
			if m[1] < lastRank[fams[i]] {
				t.Errorf("line %d %q: rank %s after rank %s in family %s", i, line, m[1], lastRank[fams[i]], fams[i])
			}
			lastRank[fams[i]] = m[1]
		}
	}
	for _, want := range []string{
		"# TYPE dp_c_seconds histogram\ndp_c_seconds_bucket{rank=\"0\",le=\"0.001\"} 1\n",
		"dp_c_seconds_count{rank=\"0\"} 1\ndp_c_seconds_bucket{rank=\"1\",le=\"0.001\"} 0\n",
		"dp_b{rank=\"0\"} 0\ndp_b{rank=\"1\"} 0.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged body lacks %q:\n%s", want, text)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

// The first write error sticks: later calls write nothing and Err
// reports it.
func TestExpoStickyError(t *testing.T) {
	w := &failWriter{}
	e := Expo{W: w}
	e.Family(Counter("dp_x_total", "X."))
	e.Sample("dp_x_total", "", 1)
	e.Histogram(EdgeLatency, "", HistogramSnapshot{Counts: []int64{0}})
	if e.Err() == nil || w.n != 1 {
		t.Errorf("Err() = %v after %d writes, want the first write's error and no further writes", e.Err(), w.n)
	}
}
