package workload

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

var (
	testTopo = sim.NewTopology(sim.DefaultTopology())
	testCat  = fleet.New(fleet.Config{Methods: 400, Clusters: len(testTopo.Clusters), Seed: 11})
)

func newGen(seed uint64) *Generator { return NewGenerator(testCat, testTopo, nil, seed) }

// recordSink keeps everything a stream carries: the spans, as the
// retention sink does, and the shape, graph and exogenous samples it
// drops.
type recordSink struct {
	datasetSink
	desc, anc map[string]*stats.Sample
	exo       map[string][]ExoObservation
	graphs    []GraphStat
}

func newRecordSink() *recordSink {
	return &recordSink{
		datasetSink: *newDatasetSink(),
		desc:        make(map[string]*stats.Sample),
		anc:         make(map[string]*stats.Sample),
		exo:         make(map[string][]ExoObservation),
	}
}

func (r *recordSink) TreeShape(method string, descendants, ancestors int) {
	AddShape(r.desc, r.anc, method, descendants, ancestors)
}

func (r *recordSink) GraphShape(g GraphStat) { r.graphs = append(r.graphs, g) }

func (r *recordSink) ExoSample(method string, s *trace.Span, exo sim.Exo) {
	r.exo[method] = append(r.exo[method], ExoObservation{Span: s, Exo: exo})
}

// merge appends o's stream to r's.
func (r *recordSink) merge(o *recordSink) {
	for name, spans := range o.methodSpans {
		r.methodSpans[name] = append(r.methodSpans[name], spans...)
	}
	r.volume = append(r.volume, o.volume...)
	r.treeSpans = append(r.treeSpans, o.treeSpans...)
	MergeSamples(r.desc, o.desc)
	MergeSamples(r.anc, o.anc)
	for name, obs := range o.exo {
		r.exo[name] = append(r.exo[name], obs...)
	}
	r.graphs = append(r.graphs, o.graphs...)
}

// spans returns every recorded span: the volume mix, the trees, then the
// stratified samples.
func (r *recordSink) spans() []*trace.Span {
	out := append(append([]*trace.Span(nil), r.volume...), r.treeSpans...)
	for _, spans := range r.methodSpans {
		out = append(out, spans...)
	}
	return out
}

// record runs cfg on cat into one recordSink per shard and returns them
// merged in shard order, with the run's profile and its Dataset (nil
// unless cfg.RetainSpans).
func record(ctx context.Context, cat *fleet.Catalog, cfg RunConfig) (*recordSink, *gwp.Snapshot, *Dataset) {
	var shards []*recordSink
	prof, ds := Run(ctx, cat, testTopo, cfg, func(int) SpanSink {
		r := newRecordSink()
		shards = append(shards, r)
		return r
	})
	rec := newRecordSink()
	for _, r := range shards {
		rec.merge(r)
	}
	return rec, prof, ds
}

func TestCallProducesCompleteSpan(t *testing.T) {
	gen := newGen(1)
	m := testCat.MethodByName("networkdisk/Write")
	obs := gen.Call(m, CallOptions{At: time.Hour})
	s := obs.Span
	if s == nil {
		t.Fatal("no span")
	}
	if s.Method != "networkdisk/Write" || s.Service != "networkdisk" {
		t.Errorf("identity %q/%q", s.Method, s.Service)
	}
	if s.ClientCluster == "" || s.ServerCluster == "" {
		t.Error("missing placement")
	}
	if s.RequestBytes < 64 || s.ResponseBytes < 64 {
		t.Error("sizes below floor")
	}
	if s.CPUCycles <= 0 {
		t.Error("no CPU cost")
	}
	for c, v := range s.Breakdown {
		if v < 0 {
			t.Errorf("negative component %v", trace.Component(c))
		}
	}
	if s.Breakdown.Total() <= 0 {
		t.Error("zero total latency")
	}
	if s.Breakdown[trace.ServerApp] <= 0 {
		t.Error("zero app time")
	}
}

func TestCallDeterministicPerSeed(t *testing.T) {
	m := testCat.Methods[50]
	a := newGen(7).Call(m, CallOptions{At: time.Hour})
	b := newGen(7).Call(m, CallOptions{At: time.Hour})
	if a.Span.Breakdown != b.Span.Breakdown || a.Span.RequestBytes != b.Span.RequestBytes {
		t.Fatal("same seed produced different spans")
	}
}

func TestSameClusterOnly(t *testing.T) {
	gen := newGen(2)
	m := testCat.MethodByName("bigtable/SearchValue")
	for i := 0; i < 50; i++ {
		obs := gen.Call(m, CallOptions{At: time.Hour, SameClusterOnly: true})
		if !obs.Span.SameCluster() {
			t.Fatal("SameClusterOnly violated")
		}
	}
}

func TestServerInHomeClusters(t *testing.T) {
	gen := newGen(3)
	m := testCat.Methods[200]
	homes := make(map[string]bool)
	for _, h := range m.HomeClusters {
		homes[testTopo.Clusters[h].Name] = true
	}
	for i := 0; i < 100; i++ {
		obs := gen.Call(m, CallOptions{At: time.Hour})
		if !homes[obs.Span.ServerCluster] {
			t.Fatalf("server %s not in home set", obs.Span.ServerCluster)
		}
	}
}

func TestMaterializedTreeLinks(t *testing.T) {
	gen := newGen(4)
	// Pick a high-layer method so trees are non-trivial.
	var root *fleet.Method
	for _, m := range testCat.Methods {
		if m.Layer >= 3 && len(m.Callees) > 0 {
			root = m
			break
		}
	}
	if root == nil {
		t.Skip("no layer-3 method in test catalog")
	}
	col := trace.New()
	var spanCount int
	for i := 0; i < 20; i++ {
		gen.Call(root, CallOptions{
			At: time.Hour, Materialize: true, MaxDepth: 6, Budget: 500,
			Observe: func(o CallObservation) {
				col.Collect(o.Span)
				spanCount++
			},
		})
	}
	trees := trace.BuildGraphs(col.Spans())
	if len(trees) != 20 {
		t.Fatalf("trees = %d, want 20 (children mis-linked?)", len(trees))
	}
	var multi bool
	for _, tr := range trees {
		if tr.Spans > 1 {
			multi = true
		}
		if tr.Root.Span.Method != root.Name && !tr.Root.Span.Hedged {
			t.Errorf("root method = %q", tr.Root.Span.Method)
		}
	}
	if !multi {
		t.Error("no tree had nested calls")
	}
}

func TestBudgetBoundsTreeSize(t *testing.T) {
	gen := newGen(5)
	var root *fleet.Method
	for _, m := range testCat.Methods {
		if m.Layer >= 3 {
			root = m
			break
		}
	}
	if root == nil {
		t.Skip("no deep method")
	}
	for i := 0; i < 50; i++ {
		count := 0
		gen.Call(root, CallOptions{
			At: time.Hour, Materialize: true, Budget: 100, MaxDepth: 8,
			Observe: func(CallObservation) { count++ },
		})
		// Hedged duplicates can add a few beyond the budget.
		if count > 130 {
			t.Fatalf("tree size %d far exceeds budget 100", count)
		}
	}
}

func TestParentAppIncludesChildren(t *testing.T) {
	gen := newGen(6)
	var root *fleet.Method
	for _, m := range testCat.Methods {
		if m.Layer >= 2 && len(m.Callees) > 0 && m.LeafProb < 0.5 {
			root = m
			break
		}
	}
	if root == nil {
		t.Skip("no fan-out method")
	}
	col := trace.New()
	for i := 0; i < 30; i++ {
		gen.Call(root, CallOptions{
			At: time.Hour, Materialize: true, MaxDepth: 4, Budget: 200,
			Observe: func(o CallObservation) { col.Collect(o.Span) },
		})
	}
	for _, tr := range trace.BuildGraphs(col.Spans()) {
		if tr.Root.Span.Err.IsError() {
			continue // an erroring parent abandons its children early
		}
		for _, child := range tr.Root.Children {
			if child.Span.Hedged {
				continue
			}
			// The parent's app time covers its children, except for
			// extreme stragglers that the generator models as hedged
			// away (the parent returns from a backup while the
			// straggler runs to completion); those retain at least a
			// fifth of the excess.
			app := tr.Root.Span.Breakdown[trace.ServerApp]
			if app < child.Span.Latency() && 5*app < child.Span.Latency() {
				t.Fatalf("parent app %v far below child latency %v", app, child.Span.Latency())
			}
		}
	}
}

func TestCrossClusterWireLatency(t *testing.T) {
	gen := newGen(7)
	m := testCat.MethodByName("spanner/ReadRows")
	var sameWire, crossWire stats.Sample
	for i := 0; i < 3000; i++ {
		obs := gen.Call(m, CallOptions{At: time.Hour})
		w := float64(obs.Span.Breakdown.Wire())
		if obs.Span.SameCluster() {
			sameWire.Add(w)
		} else {
			crossWire.Add(w)
		}
	}
	if sameWire.Len() == 0 || crossWire.Len() == 0 {
		t.Skip("locality produced only one placement kind")
	}
	if crossWire.Quantile(0.5) <= sameWire.Quantile(0.5) {
		t.Errorf("cross-cluster wire median %v <= same-cluster %v",
			time.Duration(int64(crossWire.Quantile(0.5))), time.Duration(int64(sameWire.Quantile(0.5))))
	}
}

func TestGenerateCancellation(t *testing.T) {
	// A pre-cancelled context stops every shard at its first sample
	// boundary: the run returns promptly with far less than the full
	// dataset, and what it does return is well-formed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := RunConfig{
		Seed: 1, MethodSamples: 50, StudiedSamples: 100,
		VolumeRoots: 200000, Trees: 500, MaxDepth: 6, TreeBudget: 400,
	}
	rec, _, _ := record(ctx, testCat, cfg)
	if got := len(rec.volume); got >= cfg.VolumeRoots/10 {
		t.Fatalf("cancelled run produced %d of %d volume spans — cancellation did not stop the shards", got, cfg.VolumeRoots)
	}
	for _, s := range rec.volume {
		if s.Method == "" {
			t.Fatal("partial dataset contains an unfinished span")
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	rec, prof, ds := record(context.Background(), testCat, RunConfig{
		Seed: 1, MethodSamples: 30, StudiedSamples: 100,
		VolumeRoots: 4000, Trees: 60, MaxDepth: 6, TreeBudget: 400,
		RetainSpans: true,
	})
	if len(ds.MethodSpans) != len(testCat.Methods) {
		t.Fatalf("method span sets = %d", len(ds.MethodSpans))
	}
	for name, spans := range ds.MethodSpans {
		if len(spans) < 30 {
			t.Fatalf("%s has %d spans", name, len(spans))
		}
	}
	if len(ds.VolumeSpans) < 4000 {
		t.Fatalf("volume spans = %d", len(ds.VolumeSpans))
	}
	if len(ds.TreeSpans) == 0 || len(trace.BuildGraphs(ds.TreeSpans)) == 0 {
		t.Fatal("no trees materialized")
	}
	// The Dataset retains exactly the spans the caller's sinks saw, in
	// shard order.
	if !reflect.DeepEqual(ds.MethodSpans, rec.methodSpans) || !reflect.DeepEqual(ds.VolumeSpans, rec.volume) ||
		!reflect.DeepEqual(ds.TreeSpans, rec.treeSpans) {
		t.Fatal("retained spans differ from the streamed ones")
	}
	if prof == nil || prof.Total() == 0 {
		t.Fatal("no CPU profile")
	}
	// Studied methods have boosted samples and exo observations.
	for _, s := range fleet.EightServices() {
		if len(ds.MethodSpans[s.Method]) < 100 {
			t.Errorf("studied %s has %d samples", s.Method, len(ds.MethodSpans[s.Method]))
		}
		if len(rec.exo[s.Method]) == 0 {
			t.Errorf("no exo observations for %s", s.Method)
		}
	}
	// Shape samples exist for every method.
	if len(rec.desc) < len(testCat.Methods) {
		t.Errorf("descendant samples only for %d methods", len(rec.desc))
	}
}

func TestVolumeMixMatchesPopularity(t *testing.T) {
	_, ds := Run(context.Background(), testCat, testTopo, RunConfig{
		Seed: 2, MethodSamples: 5, StudiedSamples: 5,
		VolumeRoots: 30000, Trees: 10, MaxDepth: 3, TreeBudget: 100,
		RetainSpans: true,
	}, nil)
	counts := make(map[string]int)
	total := 0
	for _, s := range ds.VolumeSpans {
		if s.Hedged {
			continue
		}
		counts[s.Method]++
		total++
	}
	write := testCat.MethodByName("networkdisk/Write")
	got := float64(counts["networkdisk/Write"]) / float64(total)
	if math.Abs(got-write.Popularity) > 0.02 {
		t.Errorf("Write volume share = %.3f, want %.3f", got, write.Popularity)
	}
}

func TestErrorMixInVolume(t *testing.T) {
	_, ds := Run(context.Background(), testCat, testTopo, RunConfig{
		Seed: 3, MethodSamples: 5, StudiedSamples: 5,
		VolumeRoots: 60000, Trees: 10, MaxDepth: 3, TreeBudget: 100,
		RetainSpans: true,
	}, nil)
	var errs, cancelled, total int
	for _, s := range ds.VolumeSpans {
		total++
		if s.Err.IsError() {
			errs++
			if s.Err == trace.Cancelled {
				cancelled++
			}
		}
	}
	errRate := float64(errs) / float64(total)
	if errRate < 0.008 || errRate > 0.04 {
		t.Errorf("fleet error rate = %.4f, want ~0.019", errRate)
	}
	cancelShare := float64(cancelled) / float64(errs)
	if cancelShare < 0.25 || cancelShare > 0.65 {
		t.Errorf("cancelled share of errors = %.3f, want ~0.45", cancelShare)
	}
}

func TestCycleTaxShares(t *testing.T) {
	p, _ := Run(context.Background(), testCat, testTopo, RunConfig{
		Seed: 4, MethodSamples: 10, StudiedSamples: 10,
		VolumeRoots: 10000, Trees: 20, MaxDepth: 4, TreeBudget: 200,
	}, nil)
	if got := p.TaxShare(); got < 0.05 || got > 0.10 {
		t.Errorf("cycle tax share = %.4f, want ~0.071", got)
	}
	// Category ordering: compression > networking > serialization > lib.
	comp := p.CategoryShare(1)
	net := p.CategoryShare(2)
	ser := p.CategoryShare(3)
	lib := p.CategoryShare(4)
	if !(comp > net && net > ser && ser > lib) {
		t.Errorf("category order wrong: %.4f %.4f %.4f %.4f", comp, net, ser, lib)
	}
}

func TestDescendantsWiderThanDeep(t *testing.T) {
	rec, _, _ := record(context.Background(), testCat, RunConfig{
		Seed: 5, MethodSamples: 40, StudiedSamples: 40,
		VolumeRoots: 2000, Trees: 150, MaxDepth: 8, TreeBudget: 2000,
	})
	// Ancestors are bounded (trees are shallow)...
	var maxAnc float64
	for _, s := range rec.anc {
		if v := s.Quantile(1); v > maxAnc {
			maxAnc = v
		}
	}
	if maxAnc > 12 {
		t.Errorf("max ancestors = %v, want <= depth cap", maxAnc)
	}
	// ...while descendants are heavy-tailed: some method's P99 must be
	// far above the fleet median (wider than deep).
	var medians, p99s stats.Sample
	for _, s := range rec.desc {
		medians.Add(s.Quantile(0.5))
		p99s.Add(s.Quantile(0.99))
	}
	if med := medians.Quantile(0.5); med > 30 {
		t.Errorf("median-of-median descendants = %v, want small (<=13-ish)", med)
	}
	if p99s.Quantile(0.9) < 20 {
		t.Errorf("descendant tails too light: P90 of P99s = %v", p99s.Quantile(0.9))
	}
}

func TestGrowthHistory(t *testing.T) {
	db := monarch.NewDB(monarch.WithWindow(24*time.Hour), monarch.WithRetention(800*24*time.Hour))
	if err := DeclareMetrics(db); err != nil {
		t.Fatal(err)
	}
	if err := WriteGrowthHistory(db, GrowthConfig{Days: 700, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rps := db.Query(MetricRPS, nil, time.Time{}, time.Time{})
	cpu := db.Query(MetricCPU, nil, time.Time{}, time.Time{})
	if len(rps) != 1 || len(cpu) != 1 {
		t.Fatalf("series: rps=%d cpu=%d", len(rps), len(cpu))
	}
	if len(rps[0].Points) != 700 {
		t.Fatalf("rps points = %d", len(rps[0].Points))
	}
	// Ratio growth: last-30-day mean ratio vs first-30-day mean ratio
	// should be ~1.64x (paper: +64% over 700 days).
	ratio := func(points []monarch.Point, cpuPts []monarch.Point, from, to int) float64 {
		var sum float64
		for i := from; i < to; i++ {
			sum += points[i].Value / cpuPts[i].Value
		}
		return sum / float64(to-from)
	}
	start := ratio(rps[0].Points, cpu[0].Points, 0, 30)
	end := ratio(rps[0].Points, cpu[0].Points, 670, 700)
	growth := end / start
	if growth < 1.45 || growth > 1.90 {
		t.Errorf("700-day RPS/CPU growth = %.2fx, want ~1.64x", growth)
	}
}

func TestDiurnalDay(t *testing.T) {
	db := monarch.NewDB(monarch.WithWindow(30 * time.Minute))
	if err := DeclareMetrics(db); err != nil {
		t.Fatal(err)
	}
	gen := newGen(8)
	// Use the most loaded cluster: diurnal effects are strongest where
	// the superlinear load terms bite.
	cl := testTopo.Clusters[0]
	for _, c := range testTopo.Clusters {
		if c.Exo.MeanUtil() > cl.Exo.MeanUtil() {
			cl = c
		}
	}
	if err := WriteDiurnalDay(db, gen, "bigtable/SearchValue", cl, 200); err != nil {
		t.Fatal(err)
	}
	lat := db.Query(MetricLatP95, monarch.Labels{"cluster": cl.Name}, time.Time{}, time.Time{})
	if len(lat) != 1 || len(lat[0].Points) != 48 {
		t.Fatalf("latency windows = %+v", lat)
	}
	util := db.Query(MetricCPUUtil, nil, time.Time{}, time.Time{})
	if len(util) != 1 || len(util[0].Points) != 48 {
		t.Fatal("missing exo gauges")
	}
	// Latency and utilization must co-move over the day (Fig. 18).
	var xs, ys []float64
	for i := range util[0].Points {
		xs = append(xs, util[0].Points[i].Value)
		ys = append(ys, lat[0].Points[i].Value)
	}
	if r := stats.Pearson(xs, ys); r < 0.1 {
		t.Errorf("util-latency correlation over the day = %.3f, want positive", r)
	}
	if err := WriteDiurnalDay(db, gen, "nope/Nope", cl, 10); err == nil {
		t.Error("unknown method should error")
	}
}

func TestHedgedCancellationSpan(t *testing.T) {
	gen := newGen(9)
	m := testCat.MethodByName("networkdisk/Write")
	s := gen.HedgedCancellation(m, time.Hour)
	if !s.Hedged || s.Err != trace.Cancelled {
		t.Fatalf("hedged cancellation wrong: hedged=%v err=%v", s.Hedged, s.Err)
	}
	if s.CPUCycles <= 0 {
		t.Error("cancellation should still burn cycles")
	}
}

func TestQueueHeavyServiceShape(t *testing.T) {
	// ssdcache (QueueFactor 8) must show queue-dominated latency far
	// more often than kvstore (QueueFactor 0.5).
	gen := newGen(10)
	frac := func(name string) float64 {
		m := testCat.MethodByName(name)
		queueDominant := 0
		const n = 800
		for i := 0; i < n; i++ {
			obs := gen.Call(m, CallOptions{At: time.Hour, SameClusterOnly: true})
			if obs.Span.Breakdown.Queue() > obs.Span.Breakdown[trace.ServerApp] {
				queueDominant++
			}
		}
		return float64(queueDominant) / n
	}
	ssd, kv := frac("ssdcache/Lookup"), frac("kvstore/Search")
	if ssd <= kv {
		t.Errorf("ssdcache queue-dominance %.3f <= kvstore %.3f", ssd, kv)
	}
}

// replayDump replays a dump through one recordSink that every shard
// shares, so its fields hold everything the replay fed.
func replayDump(t *testing.T, spans []*trace.Span) (*recordSink, *gwp.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	d := newRecordSink()
	prof, err := Replay(&buf, func(int) SpanSink { return d })
	if err != nil {
		t.Fatal(err)
	}
	return d, prof
}

func TestReplayRoundTrip(t *testing.T) {
	rec, _, _ := record(context.Background(), testCat, RunConfig{
		Seed: 31, MethodSamples: 10, StudiedSamples: 10,
		VolumeRoots: 2000, Trees: 40, MaxDepth: 5, TreeBudget: 200,
	})
	spans := rec.spans()
	d, prof := replayDump(t, spans)
	if len(d.volume) != len(spans) {
		t.Fatalf("replayed %d spans, wrote %d", len(d.volume), len(spans))
	}
	// Every materialized tree of two or more spans comes back whole.
	perTrace := make(map[trace.TraceID]int)
	for _, s := range rec.treeSpans {
		perTrace[s.TraceID]++
	}
	var wantSpans, wantGraphs int
	for _, n := range perTrace {
		if n >= 2 {
			wantSpans += n
			wantGraphs++
		}
	}
	if wantGraphs == 0 || len(d.treeSpans) != wantSpans || len(d.graphs) != wantGraphs {
		t.Fatalf("rebuilt %d tree spans in %d graphs, want %d in %d",
			len(d.treeSpans), len(d.graphs), wantSpans, wantGraphs)
	}
	if prof == nil || prof.Total() <= 0 {
		t.Fatal("no profile synthesized")
	}
	// Per-method grouping preserved.
	for name, spans := range d.methodSpans {
		for _, s := range spans {
			if s.Method != name {
				t.Fatalf("span %s grouped under %s", s.Method, name)
			}
		}
	}
	// Shape samples exist for multi-span trees.
	if len(d.desc) == 0 {
		t.Fatal("no shape samples reconstructed")
	}
}

// shardSink records the IDs of the spans a replay routed to it; the rest
// of SpanSink is the empty tee's no-op.
type shardSink struct {
	teeSink
	method, volume []trace.SpanID
}

func (k *shardSink) MethodSpan(s *trace.Span) { k.method = append(k.method, s.SpanID) }
func (k *shardSink) VolumeSpan(s *trace.Span) { k.volume = append(k.volume, s.SpanID) }

// TestReplayRoutesByShard: every span reaches the sink and the profiler of
// the shard its ID names. The cycles are chosen so that the summation order
// shows in the profile: shard 0's one 1e16-cycle span absorbs each 1-cycle
// span added to it singly, while shard 1's thousand sum to 1000 first.
func TestReplayRoutesByShard(t *testing.T) {
	var spans []*trace.Span
	add := func(shard int, cycles float64) {
		n := uint64(len(spans)) + 1
		spans = append(spans, &trace.Span{
			TraceID: trace.TraceID(n), SpanID: trace.SpanID(shardIDBase(shard) + n),
			Service: "svc", Method: "svc/M", CPUCycles: cycles,
		})
	}
	add(0, 1e16)
	for i := 0; i < 1000; i++ {
		add(1, 1)
	}
	add(2, 3)
	add(3, 5)
	add(1, 1)

	// The reference merges per-shard profiles in shard order, as Run does.
	profs := []*gwp.Profiler{gwp.New(), gwp.New(), gwp.New(), gwp.New()}
	one := gwp.New()
	for _, s := range spans {
		s.RecordCycles(profs[ShardOf(s.SpanID)])
		s.RecordCycles(one)
	}
	ref := gwp.New()
	for _, p := range profs {
		ref.Merge(p)
	}
	want := ref.Snapshot()
	if one.Snapshot().Total() == want.Total() {
		t.Fatal("test setup: one profiler sums the cycles as the shards do")
	}

	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var sinks []*shardSink
	got, err := Replay(&buf, func(shard int) SpanSink {
		if shard != len(sinks) {
			t.Fatalf("factory called for shard %d after %d shards", shard, len(sinks))
		}
		sinks = append(sinks, &shardSink{})
		return sinks[shard]
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != len(profs) {
		t.Fatalf("replay built %d sinks, want %d", len(sinks), len(profs))
	}
	for i, k := range sinks {
		var ids []trace.SpanID
		for _, s := range spans {
			if ShardOf(s.SpanID) == i {
				ids = append(ids, s.SpanID)
			}
		}
		if !reflect.DeepEqual(k.method, ids) || !reflect.DeepEqual(k.volume, ids) {
			t.Fatalf("shard %d sink saw %d method and %d volume spans, want its %d",
				i, len(k.method), len(k.volume), len(ids))
		}
	}
	if got.ByCat != want.ByCat || !reflect.DeepEqual(got.ByMethod, want.ByMethod) ||
		!reflect.DeepEqual(got.Services, want.Services) {
		t.Fatalf("replayed profile totals %v, per-shard merge %v", got.Total(), want.Total())
	}
}

func TestReplayEmpty(t *testing.T) {
	if _, err := Replay(bytes.NewReader(nil), func(int) SpanSink { return teeSink{} }); err == nil {
		t.Fatal("empty dump should error")
	}
}

func TestColocateBoostReducesCrossRate(t *testing.T) {
	// Entry methods whose callees are widely placed; a tier-C method with
	// three home clusters genuinely cannot be co-located, so those are
	// not the interesting population.
	var entries []*fleet.Method
	for _, m := range testCat.Methods {
		if m.Layer >= 2 && len(m.Callees) > 0 {
			entries = append(entries, m)
		}
	}
	if len(entries) == 0 {
		t.Skip("no entry methods")
	}
	rate := func(boost float64) float64 {
		gen := newGen(55)
		gen.ColocateBoost = boost
		var nested, cross float64
		for i := 0; i < 150; i++ {
			m := entries[i%len(entries)]
			gen.Call(m, CallOptions{
				At: time.Hour, MaxDepth: 5, Budget: 300, Materialize: true,
				Observe: func(o CallObservation) {
					if o.Span.ParentID == 0 {
						return
					}
					nested++
					if !o.Span.SameCluster() {
						cross++
					}
				},
			})
		}
		if nested == 0 {
			return 0
		}
		return cross / nested
	}
	if high, none := rate(0.95), rate(0); high >= none {
		t.Errorf("boosted cross rate %.3f >= unboosted %.3f", high, none)
	}
}

// replaySpans replays in-memory spans through one shared recordSink.
func replaySpans(spans []*trace.Span) *recordSink {
	d := newRecordSink()
	ReplaySpans(spans, func(int) SpanSink { return d })
	return d
}

// TestDeepChainDumpLoads: a dump is outside input, and a single parent
// chain is its worst case for any per-node subtree walk. Loading must stay
// linear in the span count and still count every node's subtree right.
func TestDeepChainDumpLoads(t *testing.T) {
	const n = 100000
	spans := make([]*trace.Span, n)
	for i := range spans {
		spans[i] = &trace.Span{TraceID: 1, SpanID: trace.SpanID(i + 1), ParentID: trace.SpanID(i), Method: "chain/Link", Service: "chain"}
	}
	start := time.Now()
	ds := replaySpans(spans)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("loading a %d-span chain took %v", n, took)
	}
	if len(ds.treeSpans) != n {
		t.Fatalf("tree spans = %d, want %d", len(ds.treeSpans), n)
	}
	if len(ds.graphs) != 1 || ds.graphs[0].Spans != n || ds.graphs[0].Depth != n-1 || ds.graphs[0].Width != 1 {
		t.Fatalf("graph stats = %+v", ds.graphs)
	}
	// Span i has n-1-i descendants and i ancestors: each of 0..n-1 once.
	for what, by := range map[string]map[string]*stats.Sample{
		"descendants": ds.desc, "ancestors": ds.anc,
	} {
		s := by["chain/Link"]
		if s == nil || s.Len() != n {
			t.Fatalf("%s: sample missing or wrong size", what)
		}
		got := append([]float64(nil), s.Values()...)
		sort.Float64s(got)
		for i, v := range got {
			if v != float64(i) {
				t.Fatalf("%s: sorted sample[%d] = %v, want %d", what, i, v, i)
			}
		}
	}
}

// TestDumpParentCycles: malformed parent links in a dump must neither
// hang nor panic the loader. A span that names itself as parent is a root,
// as is one whose parent is absent; a two-span parent cycle has no root,
// so it joins no call graph but still counts as volume.
func TestDumpParentCycles(t *testing.T) {
	mk := func(id, parent trace.SpanID, method string) *trace.Span {
		return &trace.Span{TraceID: 1, SpanID: id, ParentID: parent, Method: method, Service: "s"}
	}
	spans := []*trace.Span{
		mk(1, 2, "cycle/A"), mk(2, 1, "cycle/B"),
		mk(7, 7, "self"), mk(8, 7, "self-child"),
		mk(10, 99, "orphan"), mk(11, 10, "orphan-child"),
	}
	ds := replaySpans(spans)
	if len(ds.volume) != len(spans) {
		t.Fatalf("volume spans = %d, want %d", len(ds.volume), len(spans))
	}
	var roots []string
	for _, g := range ds.graphs {
		if g.Spans != 2 || g.Depth != 1 {
			t.Errorf("graph %s: %+v, want 2 spans of depth 1", g.Root, g)
		}
		roots = append(roots, g.Root)
	}
	if len(roots) != 2 || roots[0] != "self" || roots[1] != "orphan" {
		t.Fatalf("graph roots = %v, want [self orphan]", roots)
	}
	if len(ds.treeSpans) != 4 {
		t.Fatalf("tree spans = %d, want 4 (the cycle joins no graph)", len(ds.treeSpans))
	}
	if d := ds.desc["cycle/A"]; d != nil {
		t.Error("cycle member has shape samples")
	}
	if d := ds.desc["orphan"]; d == nil || d.Quantile(1) != 1 {
		t.Error("orphan root should have one descendant")
	}
}
