// Command fleetgen generates a synthetic fleet dataset and writes it to
// disk as JSON lines (one span per line, schema trace.SpanRecord), for
// inspection with external tools or replay through cmd/tracequery and
// cmd/rpcanalyze -in.
//
// Spans stream from the generation shards straight to the writer: the
// dataset is never materialized, so memory stays bounded by one call tree
// per shard no matter how large -volume is. Each trace's spans are
// adjacent (a materialized tree is written whole once it is generated);
// traces interleave across shards, so record order varies run to run, but
// the set of records is deterministic for a fixed seed, and so is the
// report rpcanalyze -in replays from it.
//
// Usage:
//
//	fleetgen [-methods N] [-volume N] [-trees N] [-seed N] -o spans.jsonl
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

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// shardSink writes one generation shard's spans to the shared writer.
// Stratified and volume samples are one-span traces and go out as they
// come; a materialized tree's spans are held until its GraphShape and
// written with one Write, so every trace's spans are adjacent in the dump
// (the contract workload.Replay reads it by). The first write error is
// kept and reported after the run (sink callbacks cannot return errors).
type shardSink struct {
	w     *trace.SpanWriter
	tree  []*trace.Span // the open materialized tree
	roots uint64
	fanIn uint64 // fan-in edges across the shard's graphs
	motif uint64 // motif-tagged nodes across the shard's graphs
	err   error
}

func (s *shardSink) write(spans ...*trace.Span) {
	if err := s.w.Write(spans...); err != nil && s.err == nil {
		s.err = err
	}
}

func (s *shardSink) MethodSpan(sp *trace.Span) { s.write(sp) }
func (s *shardSink) VolumeSpan(sp *trace.Span) { s.write(sp) }
func (s *shardSink) TreeSpan(sp *trace.Span) {
	if sp.ParentID == 0 {
		s.roots++
	}
	//rpclint:ignore sinkobserve holding the open tree until its GraphShape is this sink's contract; bounded by one tree per shard
	s.tree = append(s.tree, sp)
}
func (s *shardSink) TreeShape(string, int, int) {}
func (s *shardSink) GraphShape(g workload.GraphStat) {
	if len(s.tree) > 0 {
		s.write(s.tree...)
		s.tree = s.tree[:0]
	}
	s.fanIn += uint64(g.FanInEdges)
	for m := 1; m < trace.NumMotifs; m++ {
		s.motif += uint64(g.Motifs[m])
	}
}
func (s *shardSink) ExoSample(string, *trace.Span, sim.Exo) {}

// dumpTotals is what a generation run wrote.
type dumpTotals struct {
	spans, roots, fanIn, motif uint64
}

// generate runs the sharded generation and writes every span to w as a
// JSON-lines dump, one sink per shard.
func generate(ctx context.Context, cat *fleet.Catalog, topo *sim.Topology, cfg workload.RunConfig, w io.Writer) (dumpTotals, error) {
	sw := trace.NewSpanWriter(w)
	var sinks []*shardSink
	workload.Run(ctx, cat, topo, cfg, func(int) workload.SpanSink {
		k := &shardSink{w: sw}
		sinks = append(sinks, k)
		return k
	})
	err := sw.Flush()
	var t dumpTotals
	for _, k := range sinks {
		if k.err != nil && err == nil {
			err = k.err
		}
		t.roots += k.roots
		t.fanIn += k.fanIn
		t.motif += k.motif
	}
	t.spans = sw.Count()
	return t, err
}

func main() {
	var (
		methods    = flag.Int("methods", 2000, "catalog size (paper: 10000)")
		volume     = flag.Int("volume", 200000, "popularity-weighted call samples")
		trees      = flag.Int("trees", 1000, "materialized call trees")
		samples    = flag.Int("samples", 150, "stratified samples per method")
		motifs     = flag.String("motifs", "", "DAG motif packs to apply: comma list of fanin,cache,sidecar,replica, or 'all'")
		seed       = flag.Uint64("seed", 1, "master seed")
		out        = flag.String("o", "spans.jsonl", "output path ('-' for stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		memstats   = flag.Bool("memstats", false, "print heap statistics to stderr at exit")
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
	// Ctrl-C stops generation at the next sample boundary; everything
	// streamed so far is already on its way to the writer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	tot, err := generate(ctx, cat, topo, workload.RunConfig{
		Seed:          *seed,
		MethodSamples: *samples,
		VolumeRoots:   *volume,
		Trees:         *trees,
	}, w)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	rate := float64(tot.spans) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "wrote %d spans (%d trees, %d methods) in %v\n",
		tot.spans, tot.roots, len(cat.Methods), elapsed.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "rate: spans_per_sec=%.0f fanin_edges=%d motif_nodes=%d\n",
		rate, tot.fanIn, tot.motif)

	if *memstats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Fprintf(os.Stderr, "memstats: heap_sys_bytes=%d heap_alloc_bytes=%d total_alloc_bytes=%d\n",
			m.HeapSys, m.HeapAlloc, m.TotalAlloc)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
