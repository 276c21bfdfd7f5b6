package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints, for every workload and end-to-end metric, the value
// in a and in b, how much worse b is as a share of a, and the bound
// BENCHMARK.json allows. It reports whether b stays within every bound and
// both reports are valid for comparison.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	untraced := func(rep *report, workload string) *result {
		for _, r := range rep.Runs {
			if r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range spec.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if ra == nil || rb == nil {
			continue
		}
		for _, r := range []*result{ra, rb} {
			if r.GeneratorBound || !r.Correct {
				fmt.Fprintf(w, "%-14s invalid for comparison: generator_bound %v, correct %v\n", wl.Name, r.GeneratorBound, r.Correct)
				ok = false
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
