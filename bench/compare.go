package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readAll(path string) (*allResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a allResult
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// verdict judges one (workload, end-to-end metric) pair. worseBy is how far
// the change's median is on the wrong side of the base's, as a share of the
// base; spread is the wider of the two sides' own run-to-run spreads. A
// spread wider than the bound cannot resolve a change of the bound's size.
func verdict(worseBy, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved"
	case worseBy > bound:
		return "worse"
	default:
		return "ok"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two result
// files and reports whether any row is worse or the change failed more.
func compareFiles(w io.Writer, basePath, changePath string) (worse bool, err error) {
	base, err := readAll(basePath)
	if err != nil {
		return false, err
	}
	change, err := readAll(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base   %s  (%s, %s)\nchange %s  (%s, %s)\n", basePath, base.Env.Commit, base.Env.CPUModel,
		changePath, change.Env.Commit, change.Env.CPUModel)
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %8s %6s  %s\n", "workload", "metric", "base", "change", "change/base", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		b, c := base.Workloads[name], change.Workloads[name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", name)
		}
		for _, d := range endToEnd {
			bm, cm := median(b.EndToEnd[d.Name]), median(c.EndToEnd[d.Name])
			if bm == 0 {
				return false, fmt.Errorf("%s %s: base is 0", name, d.Name)
			}
			worseBy := (cm - bm) / bm
			if d.Better == "higher" {
				worseBy = -worseBy
			}
			sp := max(spread(b.EndToEnd[d.Name]), spread(c.EndToEnd[d.Name]))
			if len(b.EndToEnd[d.Name]) < 2 || len(c.EndToEnd[d.Name]) < 2 {
				sp = math.Inf(1) // a single run has no spread: nothing can be resolved
			}
			v := verdict(worseBy, sp, d.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %9.3f %7.1f%% %5.0f%%  %s\n", name, d.Name, bm, cm, cm/bm, sp*100, d.Bound*100, v)
		}
		bf, cf := failedShare(b), failedShare(c)
		v := "ok"
		if cf > bf {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6f %14.6f %9s %8s %6s  %s\n", name, "failed_share", bf, cf, "-", "-", "0", v)
	}
	return worse, nil
}

func failedShare(r *workloadRuns) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
