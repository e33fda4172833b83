package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/workload"
)

// ReportOptions selects what the full report includes.
type ReportOptions struct {
	// Growth includes the 700-day Fig. 1 analysis (requires a Monarch DB
	// populated with growth history).
	DB *monarch.DB
	// Generator enables analyses that generate on demand (Figs. 18, 19).
	Generator *workload.Generator
	// LoadBalanceSeed enables Fig. 22 (0 disables, it is the slowest).
	LoadBalanceSeed uint64
	// DiurnalSamples sizes Fig. 18 windows (0 disables).
	DiurnalSamples int
}

// StreamReport generates the workload and renders the full report: each
// shard of workload.Run feeds its own ReportSink, the sinks merge in
// shard-index order, and the figures render from the merged
// accumulators. Memory stays bounded by the accumulator state (plus the
// eight studied methods' retained spans) regardless of VolumeRoots.
func StreamReport(ctx context.Context, cat *fleet.Catalog, topo *sim.Topology, cfg workload.RunConfig, opts ReportOptions) string {
	var sinks ShardSinks
	prof, _ := workload.Run(ctx, cat, topo, cfg, sinks.New)
	return ReportFromSink(sinks.Merged(), prof, opts)
}

// ShardSinks holds one ReportSink per shard of a workload.Run or
// workload.Replay, indexed by shard (nil where a replay's dump names no
// such shard): pass its New method as the sink factory, and fold the
// shards with Merged once the run returns.
type ShardSinks []*ReportSink

// New builds shard i's sink (the factory of Run and Replay).
func (s *ShardSinks) New(i int) workload.SpanSink {
	k := NewReportSink()
	if i >= len(*s) {
		*s = append(*s, make(ShardSinks, i+1-len(*s))...)
	}
	(*s)[i] = k
	return k
}

// Merged folds the shards' sinks in shard-index order into a new sink,
// leaving each shard empty (ReportSink.Merge).
func (s ShardSinks) Merged() *ReportSink {
	root := NewReportSink()
	for _, k := range s {
		root.Merge(k)
	}
	return root
}

// ReportFromSink renders the figure-by-figure report from accumulated
// state plus the run's CPU profile snapshot; every report ends here. A
// span dump renders the same way: workload.Replay feeds it to ShardSinks,
// which is how cmd/rpcanalyze -in analyzes a dump out-of-core.
func ReportFromSink(sink *ReportSink, prof *gwp.Snapshot, opts ReportOptions) string {
	var b strings.Builder
	line := func(s string) {
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}

	b.WriteString("=== A Cloud-Scale Characterization of RPCs: reproduction report ===\n\n")

	// Fig. 1
	if opts.DB != nil {
		if growth, err := GrowthAnalysis(opts.DB); err == nil {
			line(growth.Render())
		} else {
			line(fmt.Sprintf("Fig.1  (skipped: %v)", err))
		}
	}

	// Figs. 2-3
	lat := sink.LatencyByMethod()
	line(lat.Render())
	line(lat.RenderHeatmap(64))
	a := lat.Anchors()
	line(fmt.Sprintf("Fig.2 anchors: P1<=657us %.0f%% | median>=10.7ms %.0f%% | P99>=1ms %.1f%% | P99>=225ms %.0f%% | slow-5%% P99 %v",
		a.FracP1Under657us*100, a.FracMedianOver10ms*100, a.FracP99Over1ms*100,
		a.FracP99Over225ms*100, a.Slow5pP99.Round(time.Millisecond)))
	line(sink.PopularityAnalysis(lat).Render())

	// Figs. 4-5
	line(sink.TreeShapeAnalysis().Render())

	// Call-graph DAG shape (fan-in, motifs, tiers).
	line(sink.GraphShapeAnalysis().Render())

	// Figs. 6-7
	line(sink.RequestSizeByMethod().Render())
	line(sink.ResponseSizeByMethod().Render())
	line(sink.SizeRatioByMethod().Render())

	// Fig. 8 + Table 1
	line(sink.ServiceShares(prof).Render())
	line(RenderEightServices())

	// Figs. 10-13
	line(sink.TaxAnalysis().Render())
	line(sink.TaxRatioByMethod().Render())
	line(sink.TaxComponents().Render())

	// Fig. 14 panels + Fig. 15
	var studied []string
	for _, s := range fleet.EightServices() {
		studied = append(studied, s.Method)
		line(sink.ServiceBreakdown(s.Method).Render())
	}
	line(RenderWhatIf(sink.WhatIf(studied)))

	// Fig. 16
	for _, method := range []string{"bigtable/SearchValue", "networkdisk/Write", "kvstore/Search"} {
		line(sink.ClusterVariation(method, 0).Render())
	}

	// Fig. 17
	line(RenderExoPanels(sink.ExogenousAnalysis([]string{
		"bigtable/SearchValue", "kvstore/Search", "videometadata/GetMetadata",
	})))

	// Fig. 18
	if opts.Generator != nil && opts.DiurnalSamples > 0 && opts.DB != nil {
		fast, slow := extremeClusters(opts.Generator.Topo)
		for _, cl := range []*sim.Cluster{fast, slow} {
			if err := workload.WriteDiurnalDay(opts.DB, opts.Generator, "bigtable/SearchValue", cl, opts.DiurnalSamples); err == nil {
				if d, err := DiurnalAnalysis(opts.DB, "bigtable/SearchValue", cl.Name); err == nil {
					line(d.Render())
				}
			}
		}
	}

	// Fig. 19
	if opts.Generator != nil {
		m := opts.Generator.Cat.MethodByName("spanner/ReadRows")
		if m != nil {
			server := opts.Generator.Topo.Clusters[m.HomeClusters[0]]
			if cc, err := CrossClusterAnalysis(opts.Generator, "spanner/ReadRows", server, 0); err == nil {
				line(cc.Render())
			}
		}
	}

	// Figs. 20-21
	line(CycleTaxFromProfile(prof).Render())
	line(sink.CPUByMethod().Render())
	corr := sink.CPUCorrelationAnalysis()
	line(fmt.Sprintf("Fig.21 correlations: size-vs-CPU %.3f, latency-vs-CPU %.3f (paper: none)",
		corr.SizeVsCPU, corr.LatencyVsCPU))

	// Fig. 22
	if opts.LoadBalanceSeed != 0 {
		line(LoadBalanceAnalysis(opts.LoadBalanceSeed).Render())
	}

	// Fig. 23
	line(sink.ErrorAnalysis().Render())

	// §2.5 / §5.2 implication studies.
	line(sink.OffloadCoverage().Render())
	line(sink.OptimizationCoverage().Render())
	if opts.Generator != nil {
		gen := opts.Generator
		line(ColocationStudy(func() *workload.Generator {
			return workload.NewGenerator(gen.Cat, gen.Topo, nil, 4242)
		}, 250).Render())
	}

	return b.String()
}

// extremeClusters returns the fastest and slowest clusters by platform
// speed (the Fig. 18 fast/slow pair).
func extremeClusters(topo *sim.Topology) (fast, slow *sim.Cluster) {
	fast, slow = topo.Clusters[0], topo.Clusters[0]
	for _, c := range topo.Clusters {
		if c.SpeedFactor < fast.SpeedFactor {
			fast = c
		}
		if c.SpeedFactor > slow.SpeedFactor {
			slow = c
		}
	}
	return fast, slow
}
