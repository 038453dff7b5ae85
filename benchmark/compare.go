package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare prints, for two suite reports of the same workloads, one row
// per workload and end-to-end metric: both medians with their quartiles
// and run counts, the ratio B/A with A's median as its base, the bound,
// and a verdict. "regressed" means B's median is worse than A's by more
// than the bound; "unresolved" means either side's run-to-run spread
// (interquartile range over median) is wider than the bound, so the
// reports cannot tell; otherwise "ok". fail_share may not rise at all.
func compare(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two report files, got %d", len(paths))
	}
	var reps [2]report
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := reps[0], reps[1]
	fmt.Fprintf(w, "A %s  commit %s  seed %d  nproc %d  %s\n", paths[0], a.Host.Commit, a.Seed, a.Host.NProc, a.Host.GoVersion)
	fmt.Fprintf(w, "B %s  commit %s  seed %d  nproc %d  %s\n", paths[1], b.Host.Commit, b.Seed, b.Host.NProc, b.Host.GoVersion)
	fmt.Fprintf(w, "%-18s %-11s %30s %30s %18s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)", "bound", "verdict")

	inB := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		inB[wr.Name] = wr
	}
	regressed := 0
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s missing from B\n", wa.Name)
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			verdict := "ok"
			switch {
			case spread(sa.Q1, sa.Median, sa.Q3) > m.bound || spread(sb.Q1, sb.Median, sb.Q3) > m.bound:
				verdict = "unresolved"
			case sb.Median > sa.Median*(1+m.bound): // every end-to-end metric is lower-is-better
				verdict = "regressed"
				regressed++
			}
			cell := func(s summary) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(w, "%-18s %-11s %30s %30s %8.4f of %-7.5g %6.2f  %s\n",
				wa.Name, m.name, cell(sa), cell(sb), sb.Median/sa.Median, sa.Median, m.bound, verdict)
		}
		verdict := "ok"
		if wb.FailShare > wa.FailShare {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-18s %-11s %30.6g %30.6g %18s %6s  %s\n", wa.Name, "fail_share", wa.FailShare, wb.FailShare, "", "0", verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
