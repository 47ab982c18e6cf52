package main

// -agree compares two result files — each a set of repeated untraced runs,
// as `-runs 10 -trace 0 -result a.json` writes — against the bound of every
// end-to-end metric. It is the repeatability check of this benchmark (two
// sets from one commit must agree) and the regression check of later changes
// (first file the parent, second the change).

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// setupFloor is the least change of setup_s, in seconds, that counts: the
// memory workloads set up in about 20 ms, where a quarter is 5 ms of noise.
const setupFloor = 1.0

// iqr is the distance between the first and third quartile, the quartiles
// taken as Python's statistics.quantiles(n=4) does (exclusive method), so
// that iqr / median reads the same as the driver's spread.
func iqr(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := min(max(int(pos), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.75) - at(0.25)
}

func loadResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// agreeFiles prints one row per workload and metric: within (b's median is
// no worse than a's by more than the bound), worse, or unresolved (either
// set's own spread is wider than the bound, so the comparison says nothing).
// The bound is a share of a's median; for setup_s it is at least setupFloor.
// It fails unless every row is within.
func agreeFiles(pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-20s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "b vs a", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, s := range specs {
		if a[s.name] == nil || b[s.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := a[s.name][d.Name], b[s.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma // share by which b is worse than a
			if d.Better == "higher" {
				worse = -worse
			}
			bound := d.Bound
			if d.Name == "setup_s" {
				bound = max(bound, setupFloor/ma)
			}
			sa, sb := iqr(xa)/ma, iqr(xb)/mb
			verdict := "within"
			switch {
			case sa > bound || sb > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "worse"
			}
			if verdict != "within" {
				bad++
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				s.name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not within their bound", bad)
	}
	return nil
}
