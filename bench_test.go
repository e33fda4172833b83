package rpcscale

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index), plus the ablation benches
// DESIGN.md §5 calls out and real-stack microbenchmarks.
//
// Each Fig/Tab benchmark regenerates its figure from a shared simulated
// dataset; run with -v-style inspection via cmd/rpcanalyze instead when
// you want the rendered output. Benchmarks report domain metrics (shares,
// ratios) through b.ReportMetric so the shape results are visible in the
// bench output itself.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/loadbalance"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

var (
	fixtureOnce sync.Once
	fxTopo      *sim.Topology
	fxCat       *fleet.Catalog
	fxDS        *workload.Dataset
	fxProf      *gwp.Snapshot
	fxSink      *core.ReportSink
	fxLatency   *core.PerMethodResult
)

// fixture generates the shared run once per bench binary run: its
// retained spans, its profile, and the one sink every figure bench
// queries.
func fixture(b *testing.B) (*sim.Topology, *fleet.Catalog, *workload.Dataset) {
	b.Helper()
	fixtureOnce.Do(func() {
		fxTopo = sim.NewTopology(sim.DefaultTopology())
		fxCat = fleet.New(fleet.Config{Methods: 600, Clusters: len(fxTopo.Clusters), Seed: 5})
		var sinks core.ShardSinks
		fxProf, fxDS = workload.Run(context.Background(), fxCat, fxTopo, workload.RunConfig{
			Seed: 5, MethodSamples: 110, StudiedSamples: 1000,
			VolumeRoots: 30000, Trees: 200, MaxDepth: 8, TreeBudget: 1200,
			RetainSpans: true,
		}, sinks.New)
		fxSink = sinks.Merged()
		fxLatency = fxSink.LatencyByMethod()
	})
	return fxTopo, fxCat, fxDS
}

// figSink returns the fixture's accumulated sink.
func figSink(b *testing.B) *core.ReportSink {
	fixture(b)
	return fxSink
}

func BenchmarkFig01Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := monarch.NewDB(monarch.WithWindow(24 * time.Hour))
		if err := workload.DeclareMetrics(db); err != nil {
			b.Fatal(err)
		}
		if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		res, err := core.GrowthAnalysis(db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AnnualGrowth*100, "annual-growth-%")
		}
	}
}

func BenchmarkFig02LatencyHeatmap(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.LatencyByMethod()
		if i == 0 {
			a := res.Anchors()
			b.ReportMetric(a.FracMedianOver10ms*100, "median>=10.7ms-%")
		}
	}
}

func BenchmarkFig03Popularity(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.PopularityAnalysis(fxLatency)
		if i == 0 {
			b.ReportMetric(res.Top10Share*100, "top10-share-%")
		}
	}
}

func BenchmarkFig04Descendants(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TreeShapeAnalysis()
		if i == 0 {
			b.ReportMetric(res.FracMedianDescUnder13*100, "median-desc<=13-%")
		}
	}
}

func BenchmarkFig05Ancestors(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TreeShapeAnalysis()
		if i == 0 {
			b.ReportMetric(res.FracAncP99Under10*100, "anc-P99<10-%")
		}
	}
}

func BenchmarkFig06RequestSize(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.RequestSizeByMethod()
	}
}

func BenchmarkFig07SizeRatio(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.SizeRatioByMethod()
	}
}

func BenchmarkFig08ServiceShares(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.ServiceShares(fxProf)
		if i == 0 {
			b.ReportMetric(res.Row("networkdisk").CallShare*100, "networkdisk-calls-%")
		}
	}
}

func BenchmarkTab01Services(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.RenderEightServices() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig10LatencyTax(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TaxAnalysis()
		if i == 0 {
			b.ReportMetric(res.MeanTaxShare*100, "mean-tax-%")
		}
	}
}

func BenchmarkFig11TaxRatio(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TaxRatioByMethod()
		if i == 0 {
			b.ReportMetric(res.TopDecileMedian*100, "top-decile-tax-%")
		}
	}
}

func BenchmarkFig12NetworkLatency(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TaxComponents()
		if i == 0 {
			b.ReportMetric(float64(res.FastHalfWireP99)/1e6, "fast-half-P99-ms")
		}
	}
}

func BenchmarkFig13Queuing(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.TaxComponents()
		if i == 0 {
			b.ReportMetric(float64(res.TopQueueP99)/1e6, "top-decile-queue-P99-ms")
		}
	}
}

func BenchmarkFig14ServiceCDF(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range fleet.EightServices() {
			sink.ServiceBreakdown(s.Method)
		}
	}
}

func BenchmarkFig15WhatIf(b *testing.B) {
	sink := figSink(b)
	var methods []string
	for _, s := range fleet.EightServices() {
		methods = append(methods, s.Method)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.WhatIf(methods)
	}
}

func BenchmarkFig16ClusterVariation(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.ClusterVariation("bigtable/SearchValue", 0)
		if i == 0 && res.Spread > 0 {
			b.ReportMetric(res.Spread, "P95-spread-x")
		}
	}
}

func BenchmarkFig17Exogenous(b *testing.B) {
	sink := figSink(b)
	methods := []string{"bigtable/SearchValue", "kvstore/Search", "videometadata/GetMetadata"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.ExogenousAnalysis(methods)
	}
}

func BenchmarkFig18Diurnal(b *testing.B) {
	topo, cat, _ := fixture(b)
	for i := 0; i < b.N; i++ {
		db := monarch.NewDB(monarch.WithWindow(30 * time.Minute))
		if err := workload.DeclareMetrics(db); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(cat, topo, nil, uint64(i+11))
		if err := workload.WriteDiurnalDay(db, gen, "bigtable/SearchValue", topo.Clusters[0], 25); err != nil {
			b.Fatal(err)
		}
		if _, err := core.DiurnalAnalysis(db, "bigtable/SearchValue", topo.Clusters[0].Name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19CrossCluster(b *testing.B) {
	topo, cat, _ := fixture(b)
	m := cat.MethodByName("spanner/ReadRows")
	server := topo.Clusters[m.HomeClusters[0]]
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(cat, topo, nil, uint64(i+17))
		res, err := core.CrossClusterAnalysis(gen, "spanner/ReadRows", server, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(float64(last.Median)/1e6, "farthest-median-ms")
		}
	}
}

func BenchmarkFig20CycleTax(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.CycleTaxFromProfile(fxProf)
		if i == 0 {
			b.ReportMetric(res.TaxShare*100, "cycle-tax-%")
		}
	}
}

func BenchmarkFig21CPUCycles(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.CPUByMethod()
		sink.CPUCorrelationAnalysis()
	}
}

func BenchmarkFig22LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := loadbalance.DefaultConfig()
		cfg.Clusters, cfg.MachinesPerCluster = 8, 8
		cfg.Duration = 500 * time.Millisecond
		cfg.Seed = uint64(i + 1)
		res := loadbalance.Run(cfg)
		if res.Served == 0 {
			b.Fatal("nothing served")
		}
	}
}

func BenchmarkFig23Errors(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.ErrorAnalysis()
		if i == 0 {
			b.ReportMetric(res.ErrorRate*100, "error-rate-%")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationHedging compares plain vs hedged calls on the real
// stack against a server with an injected straggler mode: hedging buys
// tail latency with duplicated (cancelled) work, reproducing §4.4.
func BenchmarkAblationHedging(b *testing.B) {
	var n int
	var mu sync.Mutex
	opts := stubby.Options{Workers: 16}
	srv := stubby.NewServer(opts)
	srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		mu.Lock()
		n++
		slow := n%20 == 0
		mu.Unlock()
		if slow {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	payload := make([]byte, 128)

	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.Call(context.Background(), "bench/Get", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hedged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.CallHedged(context.Background(), "bench/Get", payload, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLoadBalance compares balancing policies at high load;
// power-of-two and least-loaded should report far lower P99 queue waits
// than random.
func BenchmarkAblationLoadBalance(b *testing.B) {
	policies := []loadbalance.Policy{
		&loadbalance.RoundRobin{}, loadbalance.Random{},
		loadbalance.PowerOfTwo{}, loadbalance.LeastLoaded{},
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			// Average the P99 across iterations: single-seed tails are
			// noisy at high load.
			var p99Sum float64
			for i := 0; i < b.N; i++ {
				cfg := loadbalance.DefaultConfig()
				cfg.Clusters, cfg.MachinesPerCluster = 6, 10
				cfg.OfferedLoad = 0.85
				// Uniform cluster demand isolates the intra-cluster
				// policy: with the default imbalance some clusters run
				// saturated, where no within-cluster policy can help.
				cfg.ClusterImbalance = 0
				cfg.Duration = 500 * time.Millisecond
				cfg.Policy = p
				cfg.Seed = uint64(i + 1)
				res := loadbalance.Run(cfg)
				p99Sum += res.Waits.Percentile(99) / 1e6
			}
			b.ReportMetric(p99Sum/float64(b.N), "p99-wait-ms")
		})
	}
}

// randomBytes draws n bytes from rng.
func randomBytes(rng *stats.RNG, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

// stitchedPayload is n bytes assembled from random fragments of a 2 KiB
// random dictionary — the structure bench/rpc.go gives fleet_mix's uploads.
func stitchedPayload(n int) []byte {
	rng := stats.NewRNG(16).Child("stitched")
	dict := randomBytes(rng, 2048)
	out := make([]byte, 0, n+64)
	for len(out) < n {
		off, l := rng.Intn(len(dict)-64), 8+rng.Intn(56)
		out = append(out, dict[off:off+l]...)
	}
	return out[:n]
}

// BenchmarkAblationCompression measures the cycle-vs-bytes trade of the
// single largest cycle-tax component (Fig. 20), flate vs pass-through: on
// dictionary-stitched payloads at the sizes compressed traffic has (the
// bulk lane takes everything from 16 KiB up, uncompressed), and on 4 KiB of
// random bytes, where what flate costs is the encoder's refusal — all that
// stands between an incompressible method and the compression tax — plus
// the stored-block wrapper that keeps Compress's output decodable.
func BenchmarkAblationCompression(b *testing.B) {
	payloads := []struct {
		name string
		data []byte
	}{
		{"stitched-600B", stitchedPayload(600)},
		{"stitched-1.5KiB", stitchedPayload(1536)},
		{"stitched-4KiB", stitchedPayload(4 << 10)},
		{"random-4KiB", randomBytes(stats.NewRNG(16).Child("random"), 4<<10)},
	}
	for _, algo := range []compressor.Algorithm{compressor.None, compressor.Flate} {
		for _, p := range payloads {
			b.Run(algo.String()+"/"+p.name, func(b *testing.B) {
				c := compressor.New(algo, nil)
				payload := p.data
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				var outLen int
				for i := 0; i < b.N; i++ {
					out, err := c.Compress(payload)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Decompress(out); err != nil {
						b.Fatal(err)
					}
					outLen = len(out)
				}
				b.ReportMetric(float64(outLen)/float64(len(payload)), "ratio")
			})
		}
	}
}

// BenchmarkAblationQueue compares FIFO vs size-aware (SJF) queueing under
// an elephant-and-mice mix — the HOL-blocking discussion of §2.5.
func BenchmarkAblationQueue(b *testing.B) {
	for _, disc := range []sim.Discipline{sim.FIFO, sim.SJF} {
		b.Run(disc.String(), func(b *testing.B) {
			var meanWait float64
			for i := 0; i < b.N; i++ {
				engine := sim.NewEngine()
				srv := sim.NewServer(engine, "m", 1, disc)
				var mouseWait time.Duration
				var mice int
				for j := 0; j < 400; j++ {
					svc := 100 * time.Microsecond // mouse
					if j%20 == 0 {
						svc = 10 * time.Millisecond // elephant
					}
					isMouse := svc < time.Millisecond
					srv.Submit(&sim.Job{Service: svc, Done: func(w time.Duration) {
						if isMouse {
							mouseWait += w
							mice++
						}
					}})
					engine.RunUntil(engine.Now() + 150*time.Microsecond)
				}
				engine.Run()
				meanWait = float64(mouseWait.Microseconds()) / float64(mice)
			}
			b.ReportMetric(meanWait, "mouse-wait-us")
		})
	}
}

// --- Real-stack microbenchmarks ---

// BenchmarkStubbyUnary measures end-to-end unary call latency on the real
// stack over loopback TCP with full encryption.
func BenchmarkStubbyUnary(b *testing.B) {
	for _, size := range []int{128, 1530, 16 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
				return p, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ch.Call(context.Background(), "bench/Echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStubbyUnaryParallel is the client fan-in variant: RunParallel
// drives concurrent callers over one channel, so a `-cpu 1,2,4` sweep
// shows how envelope-lane throughput scales with cores once callers, the
// batching drain loops and the server's workers run side by side.
func BenchmarkStubbyUnaryParallel(b *testing.B) {
	for _, size := range []int{128, 16 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
				return p, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := ch.Call(context.Background(), "bench/Echo", payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkPoolBulkUnary is the multi-connection variant of the bulk
// download bench: a 2-member Pool round-robins bulk calls across two
// channels, each its own socket with its own send and receive loops
// (DESIGN.md §16), so the `-cpu` sweep shows whether a second connection
// buys throughput once one connection's seal/open work saturates a core.
func BenchmarkPoolBulkUnary(b *testing.B) {
	const size = 256 * 1024
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	blob := make([]byte, size)
	srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
		return blob, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	pool, err := stubby.NewPool(l.Addr().String(), "bench", 2, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	req := make([]byte, 16)
	b.SetBytes(size)
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			out, err := pool.Call(context.Background(), "bench/Get", req)
			if err != nil {
				b.Fatal(err)
			}
			stubby.FreeResponse(out)
		}
	})
}

func byteLabel(n int) string {
	switch {
	case n >= 1024:
		return itoa(n/1024) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkSpanGeneration measures the simulator's span production rate
// (the cost driver for paper-scale dataset generation): each op is one
// unmaterialized call graph from a root with a subtree (~90 nodes), and
// ns/node is the generator's cost per node.
func BenchmarkSpanGeneration(b *testing.B) {
	topo, cat, _ := fixture(b)
	gen := workload.NewGenerator(cat, topo, nil, 23)
	m := cat.MethodByName("videometadata/GetMetadata")
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := gen.Call(m, workload.CallOptions{At: time.Duration(i) * time.Millisecond})
		if obs.Span == nil {
			b.Fatal("no span")
		}
		nodes += obs.Graph.Spans
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkTreeReconstruction measures Dapper-style call-graph building.
func BenchmarkTreeReconstruction(b *testing.B) {
	_, _, ds := fixture(b)
	spans := ds.TreeSpans
	if len(spans) == 0 {
		b.Skip("no tree spans")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graphs := trace.BuildGraphs(spans); len(graphs) == 0 {
			b.Fatal("no graphs")
		}
	}
}

// BenchmarkAblationColocation quantifies the §5.2 co-location what-if:
// tree root latency with and without cluster-manager co-location.
func BenchmarkAblationColocation(b *testing.B) {
	topo, cat, _ := fixture(b)
	for i := 0; i < b.N; i++ {
		res := core.ColocationStudy(func() *workload.Generator {
			return workload.NewGeneratorShard(cat, topo, nil, uint64(i+3), 1)
		}, 80)
		if i == 0 {
			b.ReportMetric(res.CrossRateWithout-res.CrossRateWith, "cross-rate-saved")
		}
	}
}

// BenchmarkOffloadCoverage regenerates the §2.5 Zerializer-style
// accelerator coverage numbers.
func BenchmarkOffloadCoverage(b *testing.B) {
	sink := figSink(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sink.OffloadCoverage()
		if i == 0 {
			b.ReportMetric(res.MessageCoverage*100, "msg-coverage-%")
			b.ReportMetric(res.ByteCoverage*100, "byte-coverage-%")
		}
	}
}

// --- Streaming accumulator benches ---

// BenchmarkAccumObserve measures the steady-state cost of folding one
// volume span into the report accumulators. After warm-up the observe
// path allocates only on histogram bucket growth and periodic bottom-k
// prunes, so allocs/op should sit near zero — the property that keeps
// StreamReport's memory bounded at any volume.
func BenchmarkAccumObserve(b *testing.B) {
	_, _, ds := fixture(b)
	spans := ds.VolumeSpans
	if len(spans) == 0 {
		b.Skip("no volume spans")
	}
	sink := core.NewReportSink()
	for _, s := range spans {
		sink.VolumeSpan(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		sink.VolumeSpan(spans[j])
		j++
		if j == len(spans) {
			j = 0
		}
	}
}

// BenchmarkStubbyStream measures server-streaming throughput on the real
// stack: 64 x 32KB chunks per stream.
func BenchmarkStubbyStream(b *testing.B) {
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	chunk := make([]byte, 32*1024)
	srv.RegisterBidi("bench/Read", func(ctx context.Context, st *stubby.Stream) error {
		for i := 0; i < 64; i++ {
			if err := st.Send(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(64 * 32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ch.OpenStream(context.Background(), "bench/Read")
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CloseSend(); err != nil {
			b.Fatal(err)
		}
		for {
			_, err := st.Recv()
			if err != nil {
				break
			}
		}
		st.Close()
	}
}

// BenchmarkStubbyBulkUnary measures unary download throughput through the
// zero-copy bulk lane: a small request fetches a size-B response, which
// rides back as scatter-gather chunk frames (see DESIGN.md §12). Each
// response buffer is recycled with FreeResponse so the receive path stays
// allocation-free, and calls pipeline so the batch writer coalesces
// frames.
func BenchmarkStubbyBulkUnary(b *testing.B) {
	for _, size := range []int{16 * 1024, 64 * 1024, 256 * 1024} {
		b.Run(byteLabel(size), func(b *testing.B) {
			opts := stubby.Options{Workers: 8}
			srv := stubby.NewServer(opts)
			blob := make([]byte, size)
			srv.Register("bench/Get", func(ctx context.Context, p []byte) ([]byte, error) {
				return blob, nil
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ch.Close()
			req := make([]byte, 16)
			b.SetBytes(int64(size))
			// Pipeline calls even on one core: in-flight calls keep the
			// batch writer coalescing frames so syscall costs amortize.
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					out, err := ch.Call(context.Background(), "bench/Get", req)
					if err != nil {
						b.Fatal(err)
					}
					stubby.FreeResponse(out)
				}
			})
		})
	}
}

// BenchmarkStubbyStream100 measures a 100-item bidirectional stream over
// the symmetric OpenStream API with per-item credit grants; ReportAllocs
// shows the allocations of the whole 100-item stream.
func BenchmarkStubbyStream100(b *testing.B) {
	const items, itemSize = 100, 1024
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	srv.RegisterBidi("bench/Items", func(ctx context.Context, st *stubby.Stream) error {
		item := make([]byte, itemSize)
		for i := 0; i < items; i++ {
			if err := st.Send(item); err != nil {
				return err
			}
		}
		return nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := stubby.Dial(l.Addr().String(), "bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(items * itemSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ch.OpenStream(context.Background(), "bench/Items")
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CloseSend(); err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := st.Recv(); err != nil {
				break
			}
		}
		st.Close()
	}
}

// BenchmarkPoolCall measures pooled unary calls (4 connections).
func BenchmarkPoolCall(b *testing.B) {
	opts := stubby.Options{Workers: 8}
	srv := stubby.NewServer(opts)
	srv.Register("bench/Echo", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	pool, err := stubby.NewPool(l.Addr().String(), "bench", 4, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	payload := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Call(context.Background(), "bench/Echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
