// Command rpcanalyze regenerates the paper's evaluation: it builds a
// synthetic fleet, simulates its traffic, runs every per-figure analysis,
// and prints the complete report.
//
// Usage:
//
//	rpcanalyze [-methods N] [-volume N] [-samples N] [-trees N]
//	           [-motifs packs] [-seed N] [-days N] [-lb] [-quick]
//	rpcanalyze -in spans.jsonl [-stream]
//
// -quick shrinks everything for a fast smoke run; paper-scale is
// -methods 10000 -volume 2000000.
//
// Simulation always streams: shards feed per-shard accumulators and the
// dataset is never materialized, so memory stays bounded regardless of
// -volume. -stream matters only with -in, where it picks between two
// analyses that genuinely differ: without it the dump is loaded whole and
// its call graphs reconstructed (Figs. 4/5 and the graph-shape figure);
// with it the dump is scanned one record at a time at bounded memory,
// which cannot reconstruct graphs and leaves those panels empty. The
// out-of-core workflow is
//
//	fleetgen -volume 2000000 -o - | rpcanalyze -stream -in -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

func main() {
	var (
		methods    = flag.Int("methods", 2000, "catalog size (paper: 10000)")
		volume     = flag.Int("volume", 200000, "popularity-weighted call samples")
		samples    = flag.Int("samples", 150, "stratified samples per method")
		trees      = flag.Int("trees", 1000, "materialized call trees")
		motifs     = flag.String("motifs", "", "DAG motif packs to apply: comma list of fanin,cache,sidecar,replica, or 'all'")
		seed       = flag.Uint64("seed", 1, "master seed")
		days       = flag.Int("days", 700, "growth history days (Fig. 1)")
		lb         = flag.Bool("lb", true, "run the Fig. 22 load-balance experiment")
		quick      = flag.Bool("quick", false, "small fast run")
		in         = flag.String("in", "", "analyze a span dump (fleetgen output, '-' for stdin) instead of simulating")
		stream     = flag.Bool("stream", false, "with -in: scan the dump at bounded memory instead of loading it (no call-graph reconstruction, so Figs. 4/5 stay empty); generation always streams")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	if *in != "" {
		analyzeDump(*in, *stream)
		return
	}

	if *quick {
		*methods, *volume, *samples, *trees = 500, 30000, 100, 200
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building topology and %d-method catalog...\n", *methods)
	topo := sim.NewTopology(sim.TopologyConfig{
		Regions: 6, DatacentersPer: 2, ClustersPerDC: 3,
		MachinesPerCluster: 16, Seed: *seed,
	})
	cat := fleet.New(fleet.Config{Methods: *methods, Clusters: len(topo.Clusters), Seed: *seed})
	packs, err := fleet.ParseMotifs(*motifs)
	if err != nil {
		fatal(err)
	}
	if len(packs) > 0 {
		counts := fleet.ApplyMotifs(cat, packs, *seed)
		for _, p := range packs {
			fmt.Fprintf(os.Stderr, "motif %s: %d methods\n", p.Name(), counts[p.Name()])
		}
	}

	// Ctrl-C cancels generation at the next sample boundary; the report
	// then runs over whatever the shards produced so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := workload.RunConfig{
		Seed:          *seed,
		MethodSamples: *samples,
		VolumeRoots:   *volume,
		Trees:         *trees,
	}

	fmt.Fprintf(os.Stderr, "writing %d-day Monarch history...\n", *days)
	db := monarch.NewDB(monarch.WithRetention(time.Duration(*days+10) * 24 * time.Hour))
	if err := workload.DeclareMetrics(db); err != nil {
		fatal(fmt.Errorf("monarch: %w", err))
	}
	if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: *days, Seed: *seed}); err != nil {
		fatal(fmt.Errorf("growth: %w", err))
	}

	gen := workload.NewGenerator(cat, topo, nil, *seed+7)
	opts := core.ReportOptions{
		DB:             db,
		Generator:      gen,
		DiurnalSamples: 120,
	}
	if *lb {
		opts.LoadBalanceSeed = *seed + 13
	}

	fmt.Fprintf(os.Stderr, "streaming fleet traffic (%d volume samples) through accumulators...\n", *volume)
	fmt.Print(core.StreamReport(ctx, cat, topo, cfg, opts))
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// analyzeDump runs the span-level analyses over a fleetgen dump. Figures
// that need the simulator (17-19, 22) or Monarch history (1, 18) are
// skipped; everything span-derived is reproduced from the file.
//
// With streaming enabled the dump is scanned one record at a time into a
// single accumulator set (every span counts toward both the per-method
// distributions and the volume mix, exactly like the materialized
// reconstruction), so dumps far larger than memory analyze fine. Call-graph
// reconstruction needs all spans at once, so the streaming path leaves
// the Fig. 4/5 shape panel and the graph summaries empty; its output is
// otherwise the same analysis, though not byte-identical to the
// materialized dump path, which replays the reconstructed graphs.
func analyzeDump(path string, stream bool) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	if !stream {
		ds, err := workload.LoadDataset(r)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d spans, %d methods, %d call graphs\n",
			len(ds.VolumeSpans), len(ds.MethodSpans), len(ds.GraphStats))
		fmt.Print(core.FullReport(ds, core.ReportOptions{}))
		return
	}

	sink := core.NewReportSink()
	prof := gwp.New()
	var n uint64
	err := trace.ScanSpans(r, func(s *trace.Span) error {
		n++
		sink.MethodSpan(s)
		sink.VolumeSpan(s)
		s.RecordCycles(prof)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if n == 0 {
		fatal(fmt.Errorf("rpcanalyze: span dump is empty"))
	}
	fmt.Fprintf(os.Stderr, "scanned %d spans out-of-core\n", n)
	fmt.Print(core.ReportFromSink(sink, prof.Snapshot(), core.ReportOptions{}))
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
