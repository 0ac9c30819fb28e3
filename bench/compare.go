package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles judges results file b against a. Per workload it prints
// the failure ratio, every end-to-end metric (on a one-operation
// workload ops_per_s alone: its latency rows are the same number
// inverted) and the guards, each with both values, the ratio or
// difference, the bound and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	worse       it is — or b failed a check, failed more of its operations
//	            than a, or lacks a workload or metric that a has
//	unresolved  either side's children spread wider than the bound and
//	            the two sides' ranges overlap, so the values decide nothing
//
// It returns the process exit code: 1 on any "worse", 2 on unreadable or
// empty input, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", errA, errB)
		return 2
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d, gomaxprocs %d)\nb: %s (commit %s, seed %d, gomaxprocs %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.GoMaxProcs, pathB, b.Env.Commit, b.Env.Seed, b.Env.GoMaxProcs)
	fmt.Fprintf(w, "%-11s %-30s %12s %12s %9s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	rows, worse, unresolved := 0, 0, 0
	row := func(wl, name string, va, vb float64, change, bound, v string) {
		rows++
		switch v {
		case "worse":
			worse++
		case "unresolved":
			unresolved++
		}
		fmt.Fprintf(w, "%-11s %-30s %12.6g %12.6g %9s %9s  %s\n", wl, name, va, vb, change, bound, v)
	}
	missing := func(wl, name string) {
		rows++
		worse++
		fmt.Fprintf(w, "%-11s %-30s %47s  worse: b does not have it\n", wl, name, "")
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil {
			continue
		}
		if rb == nil {
			missing(wl.Name, "(the workload)")
			continue
		}
		// fail_ratio has bound 0: any rise fails, and so does a failed check.
		fa, fb := failRatio(ra), failRatio(rb)
		v := "ok"
		if fb > fa || !rb.Correct {
			v = "worse"
		}
		row(wl.Name, "fail_ratio", fa, fb, fmt.Sprintf("%+.2g", fb-fa), "0", v)

		for _, m := range endToEnd {
			if wl.OneOp && (m.Name == "latency_p50_ms" || m.Name == "latency_p99_ms") {
				continue
			}
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			switch {
			case !okA:
			case !okB:
				missing(wl.Name, m.Name)
			default:
				row(wl.Name, m.Name, sa.Value, sb.Value, fmt.Sprintf("%.4f", sb.Value/sa.Value),
					fmt.Sprintf("%.0f%%", 100*m.Bound), verdict(m, sa, sb))
			}
		}
		for _, m := range perLayer {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			switch {
			case m.AbsBound == 0 || !okA:
			case !okB:
				missing(wl.Name, m.Name)
			case a.Env.Seed != b.Env.Seed:
				row(wl.Name, m.Name, sa.Value, sb.Value, "", "", "not judged: a function of the seed, and the seeds differ")
			default:
				row(wl.Name, m.Name, sa.Value, sb.Value, fmt.Sprintf("%+.2g", sb.Value-sa.Value),
					fmt.Sprintf("%g abs", m.AbsBound), guardVerdict(m, sa.Value, sb.Value))
			}
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved (b/a is b's value over a's, a signed number b's minus a's; higher is better for ops_per_s and backend.val_accuracy, lower for the rest)\n",
		worse, unresolved)
	switch {
	case rows == 0:
		fmt.Fprintln(os.Stderr, "bench -compare: a holds no workload to compare")
		return 2
	case worse > 0:
		return 1
	}
	return 0
}

func readResults(path string) (*results, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// failRatio is failed over attempted operations; a run that attempted
// nothing delivered nothing.
func failRatio(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// verdict judges b against a for one end-to-end metric.
func verdict(m metric, a, b summary) string {
	spread := func(s summary) float64 { return (s.Max - s.Min) / s.Value }
	wide := spread(a) > m.Bound || spread(b) > m.Bound
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if wide && overlap {
		return "unresolved"
	}
	worsening := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worsening = -worsening
	}
	if worsening > m.Bound {
		return "worse"
	}
	return "ok"
}

// guardVerdict judges a guard, which repeats exactly under one seed
// unless the arithmetic changed.
func guardVerdict(m metric, a, b float64) string {
	worsening := b - a
	if m.Better == "higher" {
		worsening = -worsening
	}
	if worsening > m.AbsBound {
		return "worse"
	}
	return "ok"
}
