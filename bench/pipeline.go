package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// goldenSeed1 is the SHA-256 of the full-size report at --seed 1. The
// report is a deterministic function of the seed, so any other digest at
// that seed means the pipeline's output changed.
//
//go:embed golden/seed1.sha256
var goldenSeed1 string

// pipelineSize fixes one round of analysis_pipeline: the catalog and the
// generation run that is streamed into per-shard report sinks.
type pipelineSize struct {
	methods int
	run     workload.RunConfig
}

var (
	// fullRound is about a second of work here, so a 20 s run holds about
	// twenty rounds. It keeps the 1000-method catalog, which is what sizes
	// the accumulators, and scales the sample counts down from a study.
	fullRound = pipelineSize{1000, workload.RunConfig{MethodSamples: 5, StudiedSamples: 50, VolumeRoots: 10000, Trees: 25}}
	// quickRound is the -smoke size and the warm-up of every set-up.
	quickRound = pipelineSize{200, workload.RunConfig{MethodSamples: 2, StudiedSamples: 10, VolumeRoots: 2000, Trees: 5}}
)

// reportSections must all appear in a rendered report.
var reportSections = []string{"=== A Cloud-Scale Characterization of RPCs", "Fig.2 anchors", "Fig.10", "Fig.20", "Fig.23"}

// pipelineEnv is the built configuration a round runs against.
type pipelineEnv struct {
	topo      *sim.Topology
	cat       *fleet.Catalog
	topoBuild time.Duration
	catBuild  time.Duration
}

func buildPipelineEnv(methods int) *pipelineEnv {
	t0 := time.Now()
	topo := sim.NewTopology(sim.TopologyConfig{Regions: 6, DatacentersPer: 2, ClustersPerDC: 3, MachinesPerCluster: 16, Seed: catalogSeed})
	t1 := time.Now()
	cat := fleet.New(fleet.Config{Methods: methods, Clusters: len(topo.Clusters), Seed: catalogSeed})
	return &pipelineEnv{topo: topo, cat: cat, topoBuild: t1.Sub(t0), catBuild: time.Since(t1)}
}

// countingSink counts the spans a shard generates on their way into the
// wrapped sink. Each shard has its own, so the count needs no lock.
type countingSink struct {
	workload.SpanSink
	spans int64
}

func (c *countingSink) MethodSpan(s *trace.Span) { c.spans++; c.SpanSink.MethodSpan(s) }
func (c *countingSink) VolumeSpan(s *trace.Span) { c.spans++; c.SpanSink.VolumeSpan(s) }
func (c *countingSink) TreeSpan(s *trace.Span)   { c.spans++; c.SpanSink.TreeSpan(s) }

// nopSink discards everything; with countingSink around it, it measures
// generation alone.
type nopSink struct{}

func (nopSink) MethodSpan(*trace.Span)                 {}
func (nopSink) VolumeSpan(*trace.Span)                 {}
func (nopSink) TreeSpan(*trace.Span)                   {}
func (nopSink) TreeShape(string, int, int)             {}
func (nopSink) GraphShape(workload.GraphStat)          {}
func (nopSink) ExoSample(string, *trace.Span, sim.Exo) {}

// roundOutcome is one pass of generate, merge and render, with the time at
// each stage boundary.
type roundOutcome struct {
	spans  int64
	report string

	start, afterRun, afterMerge, end time.Time
}

func (o *roundOutcome) wall() time.Duration { return o.end.Sub(o.start) }

// pipelineRound streams one generation run into per-shard report sinks,
// merges them in shard order and renders the report.
func pipelineRound(env *pipelineEnv, cfg workload.RunConfig) roundOutcome {
	var o roundOutcome
	var counters []*countingSink
	var sinks []*core.ReportSink
	o.start = time.Now()
	prof, _ := workload.Run(context.Background(), env.cat, env.topo, cfg, func(int) workload.SpanSink {
		k := core.NewReportSink()
		c := &countingSink{SpanSink: k}
		sinks = append(sinks, k)
		counters = append(counters, c)
		return c
	})
	o.afterRun = time.Now()
	root := core.NewReportSink()
	for _, k := range sinks {
		root.Merge(k)
	}
	o.afterMerge = time.Now()
	o.report = core.ReportFromSink(root, prof, core.ReportOptions{})
	o.end = time.Now()
	for _, c := range counters {
		o.spans += c.spans
	}
	return o
}

func digest(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// checkReport is the sanity check that applies at every seed.
func checkReport(report string, spans int64) error {
	if spans <= 0 {
		return fmt.Errorf("round generated %d spans", spans)
	}
	for _, s := range reportSections {
		if !strings.Contains(report, s) {
			return fmt.Errorf("report lacks section %q", s)
		}
	}
	return nil
}

// roundChecker verifies that every round of a run repeats the first one
// exactly, and that the full-size report at seed 1 matches the golden digest.
type roundChecker struct {
	spans  int64
	digest string
	golden string // "" when no golden applies
}

func (c *roundChecker) check(o *roundOutcome) error {
	if err := checkReport(o.report, o.spans); err != nil {
		return err
	}
	d := digest(o.report)
	if c.digest == "" {
		c.spans, c.digest = o.spans, d
		if c.golden != "" && d != c.golden {
			return fmt.Errorf("report digest %s differs from golden %s", d, c.golden)
		}
		return nil
	}
	if o.spans != c.spans || d != c.digest {
		return fmt.Errorf("round did not repeat: %d spans digest %s, first round %d spans digest %s", o.spans, d, c.spans, c.digest)
	}
	return nil
}

func newRoundChecker(seed uint64, quick bool) *roundChecker {
	c := &roundChecker{}
	if seed == 1 && !quick {
		c.golden = strings.TrimSpace(goldenSeed1)
	}
	return c
}

func roundSize(quick bool) pipelineSize {
	if quick {
		return quickRound
	}
	return fullRound
}

// runPipeline is the --trace 0 run of analysis_pipeline. It opens no socket.
// Set-up (topology, catalog and a quick-size warm round) is repeated and its
// median reported; then fixed-size rounds, all on the same seed, repeat for
// dur, and every round must reproduce the first.
func runPipeline(spec runSpec) (*result, error) {
	seed, dur := spec.seed, spec.dur
	size := roundSize(spec.quick)
	var env *pipelineEnv
	var setups []float64
	for i := 0; i < spec.setups(); i++ {
		t0 := time.Now()
		env = buildPipelineEnv(size.methods)
		warm := quickRound.run
		warm.Seed = seed
		o := pipelineRound(env, warm)
		if err := checkReport(o.report, o.spans); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	cfg := size.run
	cfg.Seed = seed
	checker := newRoundChecker(seed, spec.quick)

	var rate, wall, cpuUs []float64 // per round
	var failed int64
	m := startHeapMeter()
	for start, cpu0 := time.Now(), cpuTime(); len(wall) < 2 || time.Since(start) < dur; {
		o := pipelineRound(env, cfg)
		if err := checker.check(&o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed++
		}
		cpu1 := cpuTime() // the round's check included
		cpuUs = append(cpuUs, float64((cpu1-cpu0).Nanoseconds())/1e3)
		cpu0 = cpu1
		wall = append(wall, float64(o.wall().Nanoseconds())/1e3)
		rate = append(rate, 1/o.wall().Seconds())
	}
	heapMB := m.finish()

	// An op is one round: the spans a round emits vary with the seed by a
	// factor of two while its work does not, so spans make a poor unit. A
	// round is this workload's segment: rate and CPU come from the
	// better-quartile round, as on the RPC workloads, and the two latencies
	// are the median and the upper tail of the round time.
	r := newResult(endToEnd)
	r.Correct, r.Attempted, r.Failed = failed == 0, int64(len(wall)), failed
	sort.Float64s(wall)
	tail := pickTail(len(wall))
	r.put("setup_s", median(setups))
	r.put("ops_per_s", quietQuartile(rate, true))
	r.put("latency_p50_us", quantile(wall, 0.5))
	r.put("latency_tail_us", quantile(wall, tail))
	r.put("cpu_us_per_op", quietQuartile(cpuUs, false))
	r.put("peak_heap_mb", heapMB)
	r.note("tail_percentile", tail)
	r.note("latency_samples", float64(len(wall)))
	r.note("workload_spans", float64(checker.spans))
	fmt.Fprintf(os.Stderr, "bench: analysis_pipeline %d rounds of %d spans, report digest %s\n", len(wall), checker.spans, checker.digest)
	return r, nil
}

// tracePipeline is the --trace 1 run of analysis_pipeline: rounds with a
// span around each stage, then each layer's public functions timed alone.
func tracePipeline(spec runSpec, tracePath string) (*result, error) {
	seed, dur := spec.seed, spec.dur
	size := roundSize(spec.quick)
	r := newResult(perLayer)
	if err := resetTrace(tracePath); err != nil {
		return nil, err
	}

	var topoMs, catMs []float64
	var env *pipelineEnv
	for i := 0; i < spec.setups(); i++ {
		env = buildPipelineEnv(size.methods)
		topoMs = append(topoMs, env.topoBuild.Seconds()*1e3)
		catMs = append(catMs, env.catBuild.Seconds()*1e3)
	}
	r.put("sim.topology_build_ms", median(topoMs))
	r.put("fleet.catalog_build_ms", median(catMs))

	cfg := size.run
	cfg.Seed = seed
	checker := newRoundChecker(seed, spec.quick)
	rec := newRecorder(64)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var mergeMs, renderMs []float64
	var failed int64
	var report string
	rounds := 0
	// Rounds get the larger share of the run: their stages are the spans.
	for start := time.Now(); rounds < 2 || time.Since(start) < dur*6/10; rounds++ {
		o := pipelineRound(env, cfg)
		if err := checker.check(&o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed++
		}
		at := func(t time.Time) int64 { return int64(t.Sub(rec.epoch)) }
		root := rec.add("pipeline_round", int32(rounds), -1, at(o.start), at(o.end))
		rec.add("workload.Run", int32(rounds), root, at(o.start), at(o.afterRun))
		rec.add("core.Merge", int32(rounds), root, at(o.afterRun), at(o.afterMerge))
		rec.add("core.ReportFromSink", int32(rounds), root, at(o.afterMerge), at(o.end))
		mergeMs = append(mergeMs, o.afterMerge.Sub(o.afterRun).Seconds()*1e3)
		renderMs = append(renderMs, o.end.Sub(o.afterMerge).Seconds()*1e3)
		report = o.report
	}
	runtime.ReadMemStats(&ms1)
	r.putRuntime(&ms0, &ms1)
	r.put("workload.spans", float64(checker.spans))
	r.put("core.merge_ms", median(mergeMs))
	r.put("core.render_ms", median(renderMs))
	r.put("core.report_bytes", float64(len(report)))
	r.put("loadgen.samples", float64(rounds))

	// Generation alone: the same run into sinks that discard.
	var counters []*countingSink
	t0 := time.Now()
	workload.Run(context.Background(), env.cat, env.topo, cfg, func(int) workload.SpanSink {
		c := &countingSink{SpanSink: nopSink{}}
		counters = append(counters, c)
		return c
	})
	genWall := time.Since(t0)
	var generated int64
	for _, c := range counters {
		generated += c.spans
	}
	if generated != checker.spans {
		fmt.Fprintf(os.Stderr, "bench: generation alone made %d spans, rounds made %d\n", generated, checker.spans)
		failed++
	}
	r.put("workload.generate_spans_per_s", float64(generated)/genWall.Seconds())

	// Analysis alone: retained volume spans folded into a warm sink.
	keep := cfg
	keep.RetainSpans = true
	_, ds := workload.Run(context.Background(), env.cat, env.topo, keep, func(int) workload.SpanSink { return nopSink{} })
	vol := ds.VolumeSpans
	if len(vol) == 0 {
		return nil, fmt.Errorf("generation retained no volume spans")
	}
	sink := core.NewReportSink()
	for _, s := range vol {
		sink.VolumeSpan(s)
	}
	r.put("core.observe_ns_per_span", timePerOp(dur/10, len(vol), func() {
		for _, s := range vol {
			sink.VolumeSpan(s)
		}
	}))

	rng := stats.NewRNG(seed).Child("hist")
	values := make([]float64, 4096)
	for i := range values {
		values[i] = 1e3 + rng.Float64()*1e9
	}
	h := stats.NewLatencyHist()
	r.put("stats.hist_add_ns", timePerOp(dur/20, len(values), func() {
		for _, v := range values {
			h.Add(v)
		}
	}))

	// Span dump round trip, the out-of-core path none of the four
	// end-to-end runs takes.
	dump := vol[:min(len(vol), 5000)]
	var buf bytes.Buffer
	var ioErr error
	r.put("trace.spanio_write_ns_per_span", timePerOp(dur/20, len(dump), func() {
		buf.Reset()
		if err := trace.WriteSpans(&buf, dump); err != nil {
			ioErr = err
		}
	}))
	encoded := buf.Bytes()
	scanned := 0
	r.put("trace.spanio_scan_ns_per_span", timePerOp(dur/20, len(dump), func() {
		scanned = 0
		if err := trace.ScanSpans(bytes.NewReader(encoded), func(*trace.Span) error { scanned++; return nil }); err != nil {
			ioErr = err
		}
	}))
	if ioErr != nil || scanned != len(dump) {
		fmt.Fprintf(os.Stderr, "bench: span dump round trip read %d of %d spans: %v\n", scanned, len(dump), ioErr)
		failed++
	}

	if err := writeTrace(tracePath, "pipeline", rec.spans); err != nil {
		return nil, err
	}
	r.Attempted, r.Failed, r.Correct = int64(rounds)+2, failed, failed == 0
	return r, nil
}

// timePerOp calls batch, which performs n operations, repeatedly for about
// budget and returns the median time of one operation in nanoseconds.
func timePerOp(budget time.Duration, n int, batch func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}
