package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// workloadRuns is everything -workload all measured for one workload.
type workloadRuns struct {
	// EndToEnd holds one value per -reps run of every end-to-end metric.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
	// Attempted and Failed are summed over all runs, traced one included.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// allResult is the file -workload all writes and -compare reads. Claim comes
// last and is always null: the benchmark measures, it does not claim a gain.
type allResult struct {
	Env       envStamp                 `json:"env"`
	Units     map[string]string        `json:"units"`
	Workloads map[string]*workloadRuns `json:"workloads"`
	Claim     *string                  `json:"claim"`
}

// runner runs spec's workload on one seed, traced or not, and returns the
// result. main's runs each in a process of its own (childRun), so that every
// run starts from a fresh heap and set-up is timed from a cold start.
type runner func(workload string, seed uint64, traced bool) (*result, error)

// childRun returns the runner that re-executes this binary for one run. Each
// child arms its own watchdog.
func childRun(outDir string, spec runSpec) runner {
	return func(workload string, seed uint64, traced bool) (*result, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if traced {
			trace = "1"
		}
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(int(spec.dur.Seconds())), "-trace", trace, "-out", outDir}
		if spec.quick {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output() // an incorrect run exits 1 and still prints its result
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
		}
		return &res, nil
	}
}

// runAll runs every workload reps times with tracing off, on seeds
// spec.seed, spec.seed+1, ..., and once traced; prints every metric by name
// and writes result.json.
func runAll(outDir string, spec runSpec, reps int, run runner) error {
	all := allResult{Env: stampEnv(spec), Units: map[string]string{}, Workloads: map[string]*workloadRuns{}}
	incorrect := 0
	for _, w := range workloadNames {
		runs := &workloadRuns{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		all.Workloads[w] = runs
		for rep := 0; rep <= reps; rep++ {
			traced := rep == reps
			seed := spec.seed + uint64(rep)
			if traced {
				seed = spec.seed
			}
			res, err := run(w, seed, traced)
			if err != nil {
				return err
			}
			runs.Attempted += res.Attempted
			runs.Failed += res.Failed
			if !res.Correct {
				incorrect++
			}
			for name, m := range res.Metrics {
				all.Units[name] = m.Unit
				if traced {
					runs.PerLayer[name] = m.Value
				} else {
					runs.EndToEnd[name] = append(runs.EndToEnd[name], m.Value)
				}
			}
		}
		printWorkload(os.Stdout, w, runs, all.Units)
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), all); err != nil {
		return err
	}
	summary, err := json.Marshal(struct {
		Result    string  `json:"result"`
		Incorrect int     `json:"incorrect_runs"`
		Claim     *string `json:"claim"`
	}{filepath.Join(outDir, "result.json"), incorrect, nil})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", summary)
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed a check", incorrect)
	}
	return nil
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(w io.Writer, name string, runs *workloadRuns, units map[string]string) {
	fmt.Fprintf(w, "%s  (attempted %d, failed %d)\n", name, runs.Attempted, runs.Failed)
	for _, d := range endToEnd {
		vals := runs.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.Name, median(vals), units[d.Name])
		if len(vals) > 1 {
			fmt.Fprintf(w, " spread %5.1f%% of bound %2.0f%% over %d runs", spread(vals)*100, d.Bound*100, len(vals))
		}
		fmt.Fprintln(w)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s\n", d.Name, runs.PerLayer[d.Name], units[d.Name])
	}
}

// contract renders BENCHMARK.json from the metric tables of this package.
func contract(seconds int) ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
