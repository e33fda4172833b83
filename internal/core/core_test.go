package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// One shared run, streamed into one merged sink, for the whole package:
// generation dominates test cost and the analyses are read-only.
var (
	testTopo           = sim.NewTopology(sim.DefaultTopology())
	testCat            = fleet.New(fleet.Config{Methods: 500, Clusters: len(testTopo.Clusters), Seed: 21})
	testSink, testProf = runSink(testCat, testTopo, workload.RunConfig{
		Seed: 21, MethodSamples: 120, StudiedSamples: 2500,
		VolumeRoots: 40000, Trees: 300, MaxDepth: 8, TreeBudget: 1500,
	})
)

// runSink streams a run through per-shard report sinks and returns them
// merged, with the run's CPU profile.
func runSink(cat *fleet.Catalog, topo *sim.Topology, cfg workload.RunConfig) (*ReportSink, *gwp.Snapshot) {
	var sinks ShardSinks
	prof, _ := workload.Run(context.Background(), cat, topo, cfg, sinks.New)
	return sinks.Merged(), prof
}

func studiedMethods() []string {
	var out []string
	for _, s := range fleet.EightServices() {
		out = append(out, s.Method)
	}
	return out
}

func TestGrowthAnalysis(t *testing.T) {
	db := monarch.NewDB(monarch.WithWindow(24 * time.Hour))
	if err := workload.DeclareMetrics(db); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := GrowthAnalysis(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Normalized) != 700 {
		t.Fatalf("days = %d", len(res.Normalized))
	}
	if res.Normalized[0] != 1 {
		t.Error("series not normalized to day 0")
	}
	// Paper: ~30%/yr, +64% total.
	if res.AnnualGrowth < 0.20 || res.AnnualGrowth > 0.40 {
		t.Errorf("annual growth = %.3f, want ~0.30", res.AnnualGrowth)
	}
	if res.TotalGrowth < 0.45 || res.TotalGrowth > 0.90 {
		t.Errorf("total growth = %.3f, want ~0.64", res.TotalGrowth)
	}
	if !strings.Contains(res.Render(), "Fig.1") {
		t.Error("render missing header")
	}

	if _, err := GrowthAnalysis(monarch.NewDB()); err == nil {
		t.Error("empty DB should error")
	}
}

func TestLatencyByMethod(t *testing.T) {
	res := testSink.LatencyByMethod()
	if len(res.Rows) < 400 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Sorted by median.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Summary.P50 < res.Rows[i-1].Summary.P50 {
			t.Fatal("rows not sorted by median")
		}
	}
	a := res.Anchors()
	// The real stack's floors (wire + stack + residual queueing) sit
	// under every sample, so the emergent P1 lands above the paper's
	// 657 us for a larger minority of methods than in production;
	// EXPERIMENTS.md records the gap.
	if a.FracP1Under657us < 0.50 {
		t.Errorf("P1<=657us fraction = %.3f, paper ~0.90", a.FracP1Under657us)
	}
	if a.FracMedianOver10ms < 0.75 {
		t.Errorf("median>=10.7ms fraction = %.3f, paper ~0.90", a.FracMedianOver10ms)
	}
	if a.FracP99Over1ms < 0.98 {
		t.Errorf("P99>=1ms fraction = %.3f, paper ~0.995", a.FracP99Over1ms)
	}
	if a.FracP99Over225ms < 0.30 || a.FracP99Over225ms > 0.93 {
		t.Errorf("P99>=225ms fraction = %.3f, paper ~0.50", a.FracP99Over225ms)
	}
	if a.Slow5pP99 < 2*time.Second {
		t.Errorf("slow-5%% P99 = %v, paper >= 5s", a.Slow5pP99)
	}
	if !strings.Contains(res.Render(), "Per-method") {
		t.Error("render broken")
	}
}

func TestPopularityAnalysis(t *testing.T) {
	lat := testSink.LatencyByMethod()
	res := testSink.PopularityAnalysis(lat)
	if math.Abs(res.Top10Share-0.58) > 0.06 {
		t.Errorf("top-10 share = %.3f, paper 0.58", res.Top10Share)
	}
	if math.Abs(res.Top100Share-0.91) > 0.06 {
		t.Errorf("top-100 share = %.3f, paper 0.91", res.Top100Share)
	}
	if res.TopMethod != "networkdisk/Write" {
		t.Errorf("top method = %s", res.TopMethod)
	}
	if math.Abs(res.TopMethodShare-0.28) > 0.04 {
		t.Errorf("top method share = %.3f, paper 0.28", res.TopMethodShare)
	}
	if res.Lowest100Share < 0.25 || res.Lowest100Share > 0.60 {
		t.Errorf("lowest-100 share = %.3f, paper ~0.40", res.Lowest100Share)
	}
	if res.SlowDecileCalls > 0.05 {
		t.Errorf("slow-decile calls = %.4f, paper 0.011", res.SlowDecileCalls)
	}
	if res.SlowDecileTime < 0.35 {
		t.Errorf("slow-decile time share = %.3f, paper 0.89 (dominant)", res.SlowDecileTime)
	}
	_ = res.Render()
}

func TestTreeShapeAnalysis(t *testing.T) {
	res := testSink.TreeShapeAnalysis()
	if len(res.Rows) < 300 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.WiderThanDeep() {
		t.Error("trees should be wider than deep")
	}
	if res.MaxDepth > 12 {
		t.Errorf("max depth = %v, beyond cap", res.MaxDepth)
	}
	if res.FracMedianDescUnder13 < 0.30 {
		t.Errorf("median-desc<=13 fraction = %.3f, paper ~0.50", res.FracMedianDescUnder13)
	}
	if res.FracAncP99Under10 < 0.40 {
		t.Errorf("anc-P99<10 fraction = %.3f, paper ~0.50", res.FracAncP99Under10)
	}
	_ = res.Render()
}

func TestSizeAnalyses(t *testing.T) {
	req := testSink.RequestSizeByMethod()
	resp := testSink.ResponseSizeByMethod()
	ratio := testSink.SizeRatioByMethod()
	if len(req.Rows) < 400 || len(resp.Rows) < 400 || len(ratio.Rows) < 400 {
		t.Fatal("missing rows")
	}
	// Minimum 64B floor.
	for _, row := range req.Rows {
		if row.Summary.P1 < 60 {
			t.Fatalf("%s P1 request %v below floor", row.Method, row.Summary.P1)
		}
	}
	// Heavy tails: fleet P99 request far above median-of-medians.
	meds := req.CrossMethod(func(s stats.Summary) float64 { return s.P50 })
	p99s := req.CrossMethod(func(s stats.Summary) float64 { return s.P99 })
	if p99s.Quantile(0.9) < 8*meds.Quantile(0.5) {
		t.Error("request tails too light")
	}
	// Write dominance: most methods' median ratio < 1.
	writeDom := ratio.FractionOfMethods(func(s stats.Summary) bool { return s.P50 < 1 })
	if writeDom < 0.5 {
		t.Errorf("write-dominant fraction = %.3f, paper: majority", writeDom)
	}
	_ = req.Render()
	_ = ratio.Render()
}

func TestServiceShareAnalysis(t *testing.T) {
	res := testSink.ServiceShares(testProf)
	if res.Rows[0].Service != "networkdisk" {
		t.Errorf("top service = %s", res.Rows[0].Service)
	}
	nd := res.Row("networkdisk")
	if math.Abs(nd.CallShare-0.35) > 0.04 {
		t.Errorf("networkdisk call share = %.3f, paper 0.35", nd.CallShare)
	}
	// Network Disk moves proportionally more bytes than calls... its
	// 32KB writes at 35% of calls dominate bytes.
	if nd.ByteShare < nd.CallShare {
		t.Errorf("networkdisk bytes %.3f < calls %.3f; paper: byte-heavy", nd.ByteShare, nd.CallShare)
	}
	// ...but disproportionately few cycles (paper: <2%).
	if nd.CycleShare > 0.15 {
		t.Errorf("networkdisk cycle share = %.3f, paper <0.02", nd.CycleShare)
	}
	// ML inference: more cycles than calls.
	ml := res.Row("mlinference")
	if ml.CycleShare < 2*ml.CallShare {
		t.Errorf("mlinference cycles %.4f vs calls %.4f; paper: cycle-heavy", ml.CycleShare, ml.CallShare)
	}
	if res.Top8CallShare < 0.5 {
		t.Errorf("top-8 share = %.3f, paper 0.60", res.Top8CallShare)
	}
	_ = res.Render()
	if !strings.Contains(RenderEightServices(), "networkdisk") {
		t.Error("Table 1 render broken")
	}
}

func TestTaxAnalysis(t *testing.T) {
	res := testSink.TaxAnalysis()
	if res.MeanTaxShare <= 0 || res.MeanTaxShare > 0.25 {
		t.Errorf("mean tax share = %.4f, paper 0.02", res.MeanTaxShare)
	}
	sum := res.WireShare + res.StackShare + res.QueueShare
	if math.Abs(sum-res.MeanTaxShare) > 1e-9 {
		t.Error("tax decomposition does not sum")
	}
	// Tail skews toward network (paper Fig. 10c/d).
	if res.TailTaxShare <= 0 {
		t.Error("no tail tax")
	}
	_ = res.Render()
}

func TestTaxRatioByMethod(t *testing.T) {
	res := testSink.TaxRatioByMethod()
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.MedianMethodMedian <= 0 || res.MedianMethodMedian > 0.5 {
		t.Errorf("median-method tax ratio = %.4f, paper 0.086", res.MedianMethodMedian)
	}
	if res.TopDecileMedian <= res.MedianMethodMedian {
		t.Error("top decile should exceed the median method")
	}
	_ = res.Render()
}

func TestTaxComponents(t *testing.T) {
	res := testSink.TaxComponents()
	if res.FastHalfWireP99 <= 0 || res.Slow10pWireP99 < res.FastHalfWireP99 {
		t.Errorf("wire anchors inverted: %v %v", res.FastHalfWireP99, res.Slow10pWireP99)
	}
	if res.MedianQueueMedian <= 0 || res.MedianQueueP99 < res.MedianQueueMedian {
		t.Errorf("queue anchors inverted: %v %v", res.MedianQueueMedian, res.MedianQueueP99)
	}
	if res.TopQueueP99 < res.MedianQueueP99 {
		t.Error("top queue decile should be worse than the median method")
	}
	_ = res.Render()
}

func TestServiceBreakdown(t *testing.T) {
	checked := 0
	for _, s := range fleet.EightServices() {
		res := testSink.ServiceBreakdown(s.Method)
		if res.Spans < 100 {
			continue
		}
		checked++
		// Curve totals must be non-decreasing in percentile.
		for i := 1; i < len(res.Curve); i++ {
			if res.Curve[i].Total < res.Curve[i-1].Total {
				t.Errorf("%s: curve not monotone", s.Method)
				break
			}
		}
		if res.P95OverMedian < 1 {
			t.Errorf("%s: P95/P50 = %.2f < 1", s.Method, res.P95OverMedian)
		}
		_ = res.Render()
	}
	if checked < 5 {
		t.Fatalf("only %d studied services had enough intra-cluster spans", checked)
	}
	// Class behavior: ssdcache is queue-heavy, mlinference app-heavy.
	ssd := testSink.ServiceBreakdown("ssdcache/Lookup")
	if ssd.Spans > 100 && DominantGroup(ssd.Dominant) != "queue" {
		t.Errorf("ssdcache dominant = %s (%s), paper: queue", ssd.Dominant, DominantGroup(ssd.Dominant))
	}
	ml := testSink.ServiceBreakdown("mlinference/Infer")
	if ml.Spans > 100 && DominantGroup(ml.Dominant) != "app" {
		t.Errorf("mlinference dominant = %s, paper: app", ml.Dominant)
	}
}

func TestWhatIf(t *testing.T) {
	rows := testSink.WhatIf(studiedMethods())
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		var best float64
		for _, v := range r.Reduction {
			if v < 0 || v > 100 {
				t.Fatalf("%s reduction out of range: %v", r.Method, v)
			}
			if v > best {
				best = v
			}
		}
		if best == 0 {
			t.Errorf("%s: no component rescues any tail RPC", r.Method)
		}
	}
	// The dominant-component hypothesis: for an app-heavy service,
	// resetting ServerApp rescues the most.
	for _, r := range rows {
		if r.Method != "mlinference/Infer" {
			continue
		}
		bestC := 0
		for c, v := range r.Reduction {
			if v > r.Reduction[bestC] {
				bestC = c
			}
		}
		if trace.Component(bestC) != trace.ServerApp {
			t.Errorf("mlinference best what-if component = %v, want ServerApp", trace.Component(bestC))
		}
	}
	if !strings.Contains(RenderWhatIf(rows), "Fig.15") {
		t.Error("render broken")
	}
}

func TestClusterVariation(t *testing.T) {
	res := testSink.ClusterVariation("bigtable/SearchValue", 20)
	if len(res.Clusters) < 3 {
		t.Skipf("only %d clusters with enough spans", len(res.Clusters))
	}
	if res.Spread < 1.1 {
		t.Errorf("cluster P95 spread = %.2f, paper 1.24-10x", res.Spread)
	}
	for i := 1; i < len(res.Clusters); i++ {
		if res.Clusters[i].P95 < res.Clusters[i-1].P95 {
			t.Fatal("clusters not sorted by P95")
		}
	}
	_ = res.Render()
}

func TestExogenousAnalysis(t *testing.T) {
	panels := testSink.ExogenousAnalysis([]string{"bigtable/SearchValue", "kvstore/Search", "videometadata/GetMetadata"})
	if len(panels) != 12 {
		t.Fatalf("panels = %d, want 3 methods x 4 variables", len(panels))
	}
	// bigtable (app-heavy) must correlate positively with CPU util.
	for _, p := range panels {
		if p.Method == "bigtable/SearchValue" && p.Variable == VarCPUUtil {
			if p.Pearson < 0.02 {
				t.Errorf("bigtable tail latency vs CPU util r=%.3f, want positive", p.Pearson)
			}
		}
		if len(p.Centers) == 0 {
			t.Errorf("panel %s/%s empty", p.Method, p.Variable)
		}
	}
	_ = RenderExoPanels(panels)
}

func TestDiurnalAnalysis(t *testing.T) {
	db := monarch.NewDB(monarch.WithWindow(30 * time.Minute))
	if err := workload.DeclareMetrics(db); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(testCat, testTopo, nil, 33)
	// Fast vs slow cluster by speed factor.
	fast, slow := testTopo.Clusters[0], testTopo.Clusters[0]
	for _, c := range testTopo.Clusters {
		if c.SpeedFactor < fast.SpeedFactor {
			fast = c
		}
		if c.SpeedFactor > slow.SpeedFactor {
			slow = c
		}
	}
	for _, cl := range []*sim.Cluster{fast, slow} {
		if err := workload.WriteDiurnalDay(db, gen, "bigtable/SearchValue", cl, 60); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := DiurnalAnalysis(db, "bigtable/SearchValue", fast.Name)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := DiurnalAnalysis(db, "bigtable/SearchValue", slow.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.P95) != 48 || len(sr.P95) != 48 {
		t.Fatalf("windows: fast %d slow %d", len(fr.P95), len(sr.P95))
	}
	// Latency must co-move with utilization in at least one cluster.
	if fr.Correlation[VarCPUUtil] < 0.1 && sr.Correlation[VarCPUUtil] < 0.1 {
		t.Errorf("no util-latency co-movement: fast %.2f slow %.2f",
			fr.Correlation[VarCPUUtil], sr.Correlation[VarCPUUtil])
	}
	_ = fr.Render()
	if _, err := DiurnalAnalysis(db, "bigtable/SearchValue", "no-such-cluster"); err == nil {
		t.Error("missing cluster should error")
	}
}

func TestCrossClusterAnalysis(t *testing.T) {
	gen := workload.NewGenerator(testCat, testTopo, nil, 44)
	m := testCat.MethodByName("spanner/ReadRows")
	server := testTopo.Clusters[m.HomeClusters[0]]
	res, err := CrossClusterAnalysis(gen, "spanner/ReadRows", server, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testTopo.Clusters) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Distance-sorted medians: the farthest client must be much slower
	// than the same-cluster client.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Median < 4*first.Median {
		t.Errorf("distance effect weak: near %v far %v", first.Median, last.Median)
	}
	if !res.WireDominatedBeyondRegion {
		t.Error("cross-region latency should be wire-dominated (§3.3.5)")
	}
	// Median latency should track the speed-of-light bound.
	if last.Median < last.MinWireRTT {
		t.Errorf("median %v below light bound %v", last.Median, last.MinWireRTT)
	}
	_ = res.Render()
	if _, err := CrossClusterAnalysis(gen, "nope", server, 10); err == nil {
		t.Error("unknown method should error")
	}
}

func TestCycleTax(t *testing.T) {
	res := CycleTaxFromProfile(testProf)
	if math.Abs(res.TaxShare-0.071) > 0.02 {
		t.Errorf("cycle tax = %.4f, paper 0.071", res.TaxShare)
	}
	_ = res.Render()
}

func TestCPUByMethodAndCorrelations(t *testing.T) {
	res := testSink.CPUByMethod()
	if len(res.Rows) < 400 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Heavy per-method tails: P99/median >= 5x for most methods.
	heavy := res.FractionOfMethods(func(s stats.Summary) bool { return s.P99 >= 5*s.P50 })
	if heavy < 0.6 {
		t.Errorf("heavy-tail fraction = %.3f", heavy)
	}
	corr := testSink.CPUCorrelationAnalysis()
	if math.Abs(corr.SizeVsCPU) > 0.35 || math.Abs(corr.LatencyVsCPU) > 0.35 {
		t.Errorf("CPU correlations too strong: size %.3f latency %.3f (paper: none)",
			corr.SizeVsCPU, corr.LatencyVsCPU)
	}
}

func TestErrorAnalysis(t *testing.T) {
	res := testSink.ErrorAnalysis()
	if res.ErrorRate < 0.005 || res.ErrorRate > 0.04 {
		t.Errorf("error rate = %.4f, paper 0.019", res.ErrorRate)
	}
	cancelled := res.Row(trace.Cancelled)
	if math.Abs(cancelled.CountShare-0.45) > 0.15 {
		t.Errorf("cancelled count share = %.3f, paper 0.45", cancelled.CountShare)
	}
	notFound := res.Row(trace.EntityNotFound)
	if math.Abs(notFound.CountShare-0.20*(1-cancelled.CountShare)/0.55) > 0.12 {
		t.Errorf("not-found count share = %.3f, paper ~0.20", notFound.CountShare)
	}
	if res.HedgeCancelShare < 0.5 {
		t.Errorf("hedged share of cancellations = %.3f, want dominant", res.HedgeCancelShare)
	}
	_ = res.Render()
}

func TestLoadBalanceAnalysis(t *testing.T) {
	res := LoadBalanceAnalysis(1)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := make(map[string]LoadBalanceRow)
	for _, r := range res.Rows {
		byName[r.Service] = r
		// Clusters are imbalanced relative to machines for well-balanced
		// services (the §4.3 core finding).
		if r.ClusterSpread <= 0 {
			t.Errorf("%s: no cluster spread", r.Service)
		}
	}
	// Data-dependent services have wider machine spread than bigtable.
	if byName["spanner"].MachineSpread <= byName["bigtable"].MachineSpread {
		t.Errorf("spanner machine spread %.3f <= bigtable %.3f (paper: data-dependent skew)",
			byName["spanner"].MachineSpread, byName["bigtable"].MachineSpread)
	}
	_ = res.Render()
}
