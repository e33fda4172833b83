// Command bench is the repository's benchmark: a single-process, closed-loop
// load generator that drives the real stack over loopback TCP and the offline
// analysis pipeline, checks every output, and prints every metric by name.
// See README.md in this directory for the workloads, the metrics and how to
// read the results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames is the fixed list of workloads, in the order -workload all
// runs them. BENCHMARK.json carries the same names.
var workloadNames = []string{"unary_small", "bulk_download", "fleet_mix", "analysis_pipeline"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. Its four exported fields are the line
// the driver reads; notes and env go to the result file only.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes map[string]float64
}

// newResult returns a result with every metric of defs present at 0. A
// traced run only fills in the layers its workload exercises: the zeros left
// behind are the evidence that it bypasses the others.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{0, d.Unit}
	}
	return r
}

// put sets a metric that newResult declared.
func (r *result) put(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) note(name string, v float64) {
	if r.notes == nil {
		r.notes = map[string]float64{}
	}
	r.notes[name] = v
}

// resultFile is what a single run leaves in the output directory.
type resultFile struct {
	Env      envStamp           `json:"env"`
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Result   *result            `json:"result"`
	Notes    map[string]float64 `json:"notes,omitempty"`
}

// runSpec is what one run of one workload is given.
type runSpec struct {
	workload string
	seed     uint64
	dur      time.Duration
	// quick is the -smoke and test size: one set-up instead of setupRepeats,
	// a tenth of the warm-up, quick-size analysis_pipeline rounds.
	quick bool
}

func (s runSpec) setups() int {
	if s.quick {
		return 1
	}
	return setupRepeats
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: one of the four names, or all")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured part of a run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		outDir   = flag.String("out", "bench/out", "directory for result and trace files")
		reps     = flag.Int("reps", 1, "with -workload all: end-to-end runs per workload, seeds seed..seed+reps-1")
		smoke    = flag.Bool("smoke", false, "quick-size analysis_pipeline rounds; with -workload all also 1 s runs")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: base then change")
		asJSON   = flag.Bool("contract", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()

	if *asJSON {
		doc, err := contract(*seconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc) //nolint:errcheck // nothing to do about a closed stdout
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fatal(fmt.Errorf("GOMAXPROCS is %d: two callers and a server need at least 2", runtime.GOMAXPROCS(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	if *smoke && *workload == "all" {
		dur = time.Second
	}
	spec := runSpec{workload: *workload, seed: *seed, dur: dur, quick: *smoke}
	if *workload == "all" {
		if err := runAll(*outDir, spec, *reps, childRun(*outDir, spec)); err != nil {
			fatal(err)
		}
		return
	}

	// A hung call would otherwise hold the process until the stack's 30 s
	// default deadline, call after call. The limit is that of one run: with
	// -workload all every child arms its own.
	watchdog := time.AfterFunc(dur+150*time.Second, func() {
		fatal(fmt.Errorf("run exceeded its time limit"))
	})
	defer watchdog.Stop()
	res, err := runOne(spec, *traced == 1, *outDir)
	if err != nil {
		fatal(err)
	}
	rf := resultFile{Env: stampEnv(spec), Workload: *workload, Trace: *traced, Result: res, Notes: res.notes}
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("%s.trace%d.json", *workload, *traced)), rf); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload in one mode.
func runOne(spec runSpec, traced bool, outDir string) (*result, error) {
	tracePath := filepath.Join(outDir, spec.workload+".trace.jsonl")
	switch {
	case spec.workload == "analysis_pipeline" && traced:
		return tracePipeline(spec, tracePath)
	case spec.workload == "analysis_pipeline":
		return runPipeline(spec)
	case traced:
		return traceRPC(spec, tracePath)
	default:
		return runRPC(spec)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
