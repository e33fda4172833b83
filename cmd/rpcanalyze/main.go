// Command rpcanalyze regenerates the paper's evaluation: it builds a
// synthetic fleet, simulates its traffic, runs every per-figure analysis,
// and prints the complete report.
//
// Usage:
//
//	rpcanalyze [-methods N] [-volume N] [-samples N] [-trees N]
//	           [-motifs packs] [-seed N] [-days N] [-lb] [-quick]
//	rpcanalyze -in spans.jsonl
//
// -quick shrinks everything for a fast smoke run; paper-scale is
// -methods 10000 -volume 2000000.
//
// Both modes stream: simulation shards feed per-shard accumulators, and
// -in replays the dump one record at a time through the same per-shard
// accumulators, rebuilding each trace's call graph as its spans end
// (Figs. 4/5 and the graph-shape figure). Neither materializes the
// dataset, so memory stays bounded regardless of volume:
//
//	fleetgen -volume 2000000 -o - | rpcanalyze -in -
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
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
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
		analyzeDump(*in)
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
// skipped; everything span-derived is reproduced from the file, which
// workload.Replay reads one record at a time (so dumps far larger than
// memory analyze fine): every span counts toward both the per-method
// distributions and the volume mix, and each trace's call graphs are
// rebuilt when its adjacent spans end.
func analyzeDump(path string) {
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
	var sinks core.ShardSinks
	shards := 0
	prof, err := workload.Replay(r, func(i int) workload.SpanSink {
		shards++
		return sinks.New(i)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "replayed the dump through %d shard sinks\n", shards)
	fmt.Print(core.ReportFromSink(sinks.Merged(), prof, core.ReportOptions{}))
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
