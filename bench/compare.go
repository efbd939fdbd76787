package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare: the delta table reviewers would otherwise compute by eye, and the
// A/A tool of the acceptance run. For every workload and end-to-end metric it
// prints both values, the delta in the metric's worse direction, the bound,
// the wider of the two runs' own spreads (over their sub-windows) and a
// verdict:
//
//	ok          b is not worse than a by more than the bound
//	ok shifted  the same, but b is worse by more than either run's own
//	            spread: the bounds are wide on this box, so repeat the pair
//	            before reading it as no change
//	worse       b is worse by more than the bound; the command exits non-zero
//	unresolved  the spread of either side is wider than the bound, so the
//	            comparison cannot tell

func loadResults(name string) (*resultFile, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &f, nil
}

// metric finds the workload's untraced run and returns its value of the
// metric.
func (f *resultFile) metric(workload, name string) (value, bool) {
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			return v, true
		}
	}
	return value{}, false
}

func compareFiles(w io.Writer, aName, bName string) (worse bool, err error) {
	a, err := loadResults(aName)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bName)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (commit %s)   b: %s (commit %s)\n", aName, a.Env.Commit, bName, b.Env.Commit)
	fmt.Fprintf(w, "%-22s %-14s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "spread", "verdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			av, aok := a.metric(sp.name, d.name)
			bv, bok := b.metric(sp.name, d.name)
			if !aok || !bok {
				continue // the op type does not occur in this workload
			}
			// delta > 0 means b is worse, whatever the metric's direction.
			delta := bv.Value - av.Value
			if d.better == "higher" {
				delta = -delta
			}
			if !d.abs && av.Value != 0 {
				delta /= math.Abs(av.Value)
			}
			// A run's own spread is that of its sub-window values (of its
			// repeated set-ups for setup_s); a metric taken once has none.
			spread := math.Max(iqrShare(av.Windows), iqrShare(bv.Windows))
			hasSpread := len(av.Windows) >= 3 && len(bv.Windows) >= 3
			verdict := "ok"
			switch {
			case delta > d.bound:
				verdict = "worse"
				worse = true
			case !d.abs && spread > d.bound:
				verdict = "unresolved"
			case hasSpread && delta > spread:
				verdict = "ok shifted"
			}
			fmt.Fprintf(w, "%-22s %-14s %14.4f %14.4f %+8.2f%% %7.1f%% %7.1f%%  %s\n",
				sp.name, d.name, av.Value, bv.Value, 100*delta, 100*d.bound, 100*spread, verdict)
		}
	}
	return worse, nil
}
