package fleet

import (
	"math"
	"testing"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// testCatalog builds one catalog per test binary; generation is the
// expensive part and the catalog is immutable.
var testCat = New(Config{Methods: 1000, Clusters: 36, Seed: 42})

func TestCatalogShape(t *testing.T) {
	if len(testCat.Methods) != 1000 {
		t.Fatalf("methods = %d", len(testCat.Methods))
	}
	seen := make(map[string]bool)
	for i, m := range testCat.Methods {
		if m == nil {
			t.Fatalf("nil method at rank %d", i)
		}
		if m.LatencyRank != i {
			t.Errorf("rank mismatch at %d", i)
		}
		if seen[m.Name] {
			t.Errorf("duplicate method name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Service == nil {
			t.Errorf("%s has no service", m.Name)
		}
		if len(m.HomeClusters) == 0 {
			t.Errorf("%s has no home clusters", m.Name)
		}
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := New(Config{Methods: 300, Clusters: 12, Seed: 9})
	b := New(Config{Methods: 300, Clusters: 12, Seed: 9})
	for i := range a.Methods {
		if a.Methods[i].Name != b.Methods[i].Name ||
			a.Methods[i].Popularity != b.Methods[i].Popularity {
			t.Fatal("catalog generation not deterministic")
		}
	}
}

func TestPopularitySumsToOne(t *testing.T) {
	var total float64
	for _, m := range testCat.Methods {
		total += m.Popularity
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("popularity sums to %v", total)
	}
}

func TestPopularityAnchors(t *testing.T) {
	// Paper §2.3: top-10 = 58%, top-100 = 91% of calls.
	if got := testCat.PopularityShare(10); math.Abs(got-0.58) > 0.03 {
		t.Errorf("top-10 share = %.3f, want ~0.58", got)
	}
	if got := testCat.PopularityShare(100); math.Abs(got-0.91) > 0.04 {
		t.Errorf("top-100 share = %.3f, want ~0.91", got)
	}
	// Network Disk Write alone is 28% of calls.
	write := testCat.MethodByName("networkdisk/Write")
	if write == nil {
		t.Fatal("networkdisk/Write missing")
	}
	if math.Abs(write.Popularity-0.28) > 0.02 {
		t.Errorf("Write share = %.3f, want ~0.28", write.Popularity)
	}
}

func TestServiceShareAnchors(t *testing.T) {
	// §2.6: Network Disk is 35% of RPCs; top-8 services ~60%.
	if got := testCat.ServiceShare("networkdisk"); math.Abs(got-0.35) > 0.03 {
		t.Errorf("networkdisk share = %.3f, want ~0.35", got)
	}
	var top8 float64
	for _, s := range EightServices() {
		top8 += testCat.ServiceShare(s.Service)
	}
	if top8 < 0.52 || top8 > 0.68 {
		t.Errorf("eight studied services share = %.3f, want ~0.60", top8)
	}
	// ML Inference is rare.
	if got := testCat.ServiceShare("mlinference"); got > 0.01 {
		t.Errorf("mlinference share = %.4f, want ~0.0017", got)
	}
}

func TestLowLatencyMethodsPopular(t *testing.T) {
	// §2.3: the 100 lowest-latency methods account for ~40% of calls.
	var share float64
	for _, m := range testCat.Methods[:100] {
		share += m.Popularity
	}
	if share < 0.32 || share > 0.55 {
		t.Errorf("lowest-100 share = %.3f, want ~0.40", share)
	}
}

func TestSlowTailCallShare(t *testing.T) {
	// §2.3: the slowest 10% of methods account for ~1.1% of calls.
	var share float64
	for _, m := range testCat.Methods[900:] {
		share += m.Popularity
	}
	if share > 0.03 {
		t.Errorf("slowest-decile share = %.4f, want ~0.011", share)
	}
}

func TestSlowTailTimeShare(t *testing.T) {
	// §2.3: the slowest methods dominate total RPC time (89% in the
	// paper). Estimate with distribution means.
	var slowTime, totalTime float64
	for i, m := range testCat.Methods {
		mt := m.Popularity * m.AppTime.Mean()
		totalTime += mt
		if i >= 900 {
			slowTime += mt
		}
	}
	if frac := slowTime / totalTime; frac < 0.5 {
		t.Errorf("slow-decile time share = %.3f, want dominant (~0.89)", frac)
	}
}

func TestMedianLatencyMonotoneAcrossRanks(t *testing.T) {
	// Median must broadly increase with rank (sorted axis). Compare
	// decile medians.
	var prev float64
	for d := 0; d < 10; d++ {
		m := testCat.Methods[d*100+50]
		med := m.AppTime.Quantile(0.5)
		if med < prev*0.5 { // allow mixture noise, forbid big inversions
			t.Errorf("decile %d median %.3gms below previous", d, med/1e6)
		}
		if med > prev {
			prev = med
		}
	}
}

func TestLatencyTierAnchors(t *testing.T) {
	// 90% of methods have median >= 10.7ms.
	count := 0
	for _, m := range testCat.Methods[100:] {
		if m.AppTime.Quantile(0.5) >= float64(10*time.Millisecond) {
			count++
		}
	}
	if frac := float64(count) / 900; frac < 0.95 {
		t.Errorf("methods above 10.7ms median = %.3f of non-fast tier", frac)
	}

	// 90% of methods have P1 <= 657us (fast-path mixture).
	p1ok := 0
	for _, m := range testCat.Methods {
		if m.AppTime.Quantile(0.01) <= float64(700*time.Microsecond) {
			p1ok++
		}
	}
	if frac := float64(p1ok) / 1000; frac < 0.80 {
		t.Errorf("P1<=657us fraction = %.3f, want ~0.90", frac)
	}

	// 99.5% of methods have P99 >= 1ms. The paper measures emergent RCT
	// (queue/wire floors included), so the application-time model alone
	// only needs to get close; the emergent check lives in core.
	p99ok := 0
	for _, m := range testCat.Methods {
		if m.AppTime.Quantile(0.99) >= float64(500*time.Microsecond) {
			p99ok++
		}
	}
	if frac := float64(p99ok) / 1000; frac < 0.97 {
		t.Errorf("P99>=0.5ms fraction = %.3f, want ~1", frac)
	}

	// Slowest 5%: P99 >= 5s, P1 >= ~100ms.
	for _, m := range testCat.Methods[960:] {
		if p99 := m.AppTime.Quantile(0.99); p99 < float64(3*time.Second) {
			t.Errorf("slow-tier %s P99 = %v, want >= ~5s", m.Name, time.Duration(p99))
		}
	}
}

func TestP99MedianCrossing(t *testing.T) {
	// ~50% of methods have P99 >= 225ms.
	count := 0
	for _, m := range testCat.Methods {
		if m.AppTime.Quantile(0.99) >= float64(225*time.Millisecond) {
			count++
		}
	}
	frac := float64(count) / 1000
	if frac < 0.30 || frac > 0.75 {
		t.Errorf("P99>=225ms fraction = %.3f, want ~0.50", frac)
	}
}

func TestSizeAnchors(t *testing.T) {
	rng := stats.NewRNG(3)
	var reqMedians, respMedians stats.Sample
	writeDominant := 0
	for _, m := range testCat.Methods {
		reqMed := m.ReqSize.Quantile(0.5)
		respMed := m.RespSize.Quantile(0.5)
		reqMedians.Add(reqMed)
		respMedians.Add(respMed)
		if respMed < reqMed {
			writeDominant++
		}
	}
	// Half of methods: median request under ~1530B, response under ~315B.
	if med := reqMedians.Quantile(0.5); med < 300 || med > 6000 {
		t.Errorf("median-of-request-medians = %.0fB, want ~1.5KB", med)
	}
	if med := respMedians.Quantile(0.5); med < 100 || med > 3000 {
		t.Errorf("median-of-response-medians = %.0fB, want ~315B", med)
	}
	// Most methods are write-dominant (§2.5).
	if frac := float64(writeDominant) / 1000; frac < 0.5 {
		t.Errorf("write-dominant fraction = %.3f, want > 0.5", frac)
	}
	// Sizes have heavy in-method tails: sampled P99 well above median.
	m := testCat.Methods[500]
	s := stats.NewSample(2000)
	for i := 0; i < 2000; i++ {
		req, _ := m.SampleSizes(rng)
		s.Add(float64(req))
	}
	if s.Quantile(0.99) < 4*s.Quantile(0.5) {
		t.Errorf("request size tail too light: P99 %.0f vs median %.0f",
			s.Quantile(0.99), s.Quantile(0.5))
	}
	// Minimum size is one cache line.
	for i := 0; i < 500; i++ {
		req, resp := m.SampleSizes(rng)
		if req < 64 || resp < 64 {
			t.Fatal("size below 64B floor")
		}
	}
}

func TestCPUCostAnchors(t *testing.T) {
	// Per-method cost floor near 0.016 normalized cycles; heavy tails.
	for _, idx := range []int{50, 300, 700, 950} {
		m := testCat.Methods[idx]
		if q := m.CPUCost.Quantile(0.001); q < 0.016 {
			t.Errorf("%s cost floor = %v", m.Name, q)
		}
		med := m.CPUCost.Quantile(0.5)
		p99 := m.CPUCost.Quantile(0.99)
		if p99 < 5*med {
			t.Errorf("%s CPU tail too light: P99/median = %.1f", m.Name, p99/med)
		}
	}
	// CPU cost uncorrelated with latency rank (§4.2): Spearman of
	// median cost vs rank should be weak.
	var ranks, costs []float64
	for i, m := range testCat.Methods {
		if isNamed(m) {
			continue // named methods have hand-set costs
		}
		ranks = append(ranks, float64(i))
		costs = append(costs, m.CPUCost.Quantile(0.5))
	}
	if r := stats.SpearmanRank(ranks, costs); math.Abs(r) > 0.2 {
		t.Errorf("latency-CPU rank correlation = %.3f, want ~0", r)
	}
	// ML inference is CPU-heavy vs its call volume.
	ml := testCat.MethodByName("mlinference/Infer")
	nd := testCat.MethodByName("networkdisk/Write")
	if ml.CPUCost.Quantile(0.5) < 20*nd.CPUCost.Quantile(0.5) {
		t.Error("mlinference should be far more expensive per call than networkdisk")
	}
}

func TestCallGraphAcyclicAndLayered(t *testing.T) {
	for _, m := range testCat.Methods {
		for _, c := range m.Callees {
			if c == m {
				t.Fatalf("%s calls itself", m.Name)
			}
			if m.Layer == 0 {
				if c.Layer != 0 || c.Index >= m.Index {
					t.Fatalf("%s (layer0) calls %s (layer %d, index %d >= %d)",
						m.Name, c.Name, c.Layer, c.Index, m.Index)
				}
			} else if c.Layer >= m.Layer {
				t.Fatalf("%s (layer %d) calls %s (layer %d)", m.Name, m.Layer, c.Name, c.Layer)
			}
		}
		if m.LeafProb < 1 && len(m.Callees) == 0 {
			t.Errorf("%s can fan out but has no callees", m.Name)
		}
	}
}

func TestFanOutSampling(t *testing.T) {
	rng := stats.NewRNG(4)
	// A layer-2+ method must produce both leaves and wide fan-outs.
	var m *Method
	for _, cand := range testCat.Methods {
		if cand.Layer >= 2 && len(cand.Callees) > 0 {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("no high-layer method found")
	}
	wide := 0
	for i := 0; i < 2000; i++ {
		n := m.SampleFanOut(rng)
		if n < 0 {
			t.Fatal("negative fan-out")
		}
		if n > 40 {
			wide++
		}
	}
	if wide == 0 {
		t.Error("fan-out never exceeded 40 in 2000 draws; tail too light")
	}
	// PickCallee stays within the callee set.
	for i := 0; i < 100; i++ {
		c := m.PickCallee(rng)
		found := false
		for _, want := range m.Callees {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatal("PickCallee returned non-callee")
		}
	}
}

func TestErrorMix(t *testing.T) {
	// Weights are normalized: these are 45%, 20% and 35%.
	mix := NewErrorMix(
		[]trace.ErrorCode{trace.Cancelled, trace.EntityNotFound, trace.Internal},
		[]float64{9, 4, 7},
	)
	rng := stats.NewRNG(5)
	counts := make(map[trace.ErrorCode]int)
	for i := 0; i < 20000; i++ {
		counts[mix.Sample(rng)]++
	}
	for code, want := range map[trace.ErrorCode]float64{trace.Cancelled: 0.45, trace.EntityNotFound: 0.20, trace.Internal: 0.35} {
		if frac := float64(counts[code]) / 20000; math.Abs(frac-want) > 0.02 {
			t.Errorf("sampled %v = %.3f, want %.2f", code, frac, want)
		}
	}
	if n := counts[trace.OK]; n != 0 {
		t.Errorf("sampled OK %d times from a mix without it", n)
	}
}

func TestErrorRatesNearFleetTarget(t *testing.T) {
	// §4.4: 1.9% of all RPCs error. Popularity-weighted mean error rate.
	var weighted float64
	for _, m := range testCat.Methods {
		weighted += m.Popularity * m.ErrorRate
	}
	if weighted < 0.008 || weighted > 0.035 {
		t.Errorf("fleet error rate = %.4f, want ~0.019", weighted)
	}
}

func TestSampleMethodDistribution(t *testing.T) {
	rng := stats.NewRNG(6)
	counts := make(map[*Method]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[testCat.SampleMethod(rng)]++
	}
	write := testCat.MethodByName("networkdisk/Write")
	if frac := float64(counts[write]) / n; math.Abs(frac-write.Popularity) > 0.02 {
		t.Errorf("Write sample frequency = %.3f, want %.3f", frac, write.Popularity)
	}
}

func TestEightServicesTable(t *testing.T) {
	rows := EightServices()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if testCat.MethodByName(r.Method) == nil {
			t.Errorf("studied method %s missing from catalog", r.Method)
		}
		if r.Dominant != "app" && r.Dominant != "queue" && r.Dominant != "stack" {
			t.Errorf("%s has bad dominant class %q", r.Service, r.Dominant)
		}
	}
}

func TestStudiedClassBehavior(t *testing.T) {
	kv := testCat.MethodByName("kvstore/Search")
	// Latency-sensitive: highly local, fast.
	if kv.Locality < 0.9 {
		t.Errorf("kvstore locality = %v", kv.Locality)
	}
	if med := kv.AppTime.Quantile(0.5); med > float64(2*time.Millisecond) {
		t.Errorf("kvstore median = %v, want sub-ms-ish", time.Duration(med))
	}
	// ML Inference runs at the paper's Fig. 14f scale (single-digit ms).
	ml := testCat.MethodByName("mlinference/Infer")
	if med := ml.AppTime.Quantile(0.5); med < float64(500*time.Microsecond) || med > float64(60*time.Millisecond) {
		t.Errorf("mlinference median = %v, want ~2-30ms", time.Duration(med))
	}
}

func TestHedgeProbabilities(t *testing.T) {
	for _, m := range testCat.Methods {
		if m.HedgeProb < 0 || m.HedgeProb > 0.3 {
			t.Fatalf("%s hedge prob %v out of range", m.Name, m.HedgeProb)
		}
	}
	nd := testCat.MethodByName("networkdisk/Write")
	if nd.HedgeProb < 0.05 {
		t.Error("storage should hedge aggressively")
	}
}

func TestServiceClassString(t *testing.T) {
	for c, want := range map[ServiceClass]string{
		Storage: "storage", Compute: "compute",
		LatencySensitive: "latency-sensitive", Analytics: "analytics", Generic: "generic",
	} {
		if c.String() != want {
			t.Errorf("%d -> %q", c, c.String())
		}
	}
}

func TestMinimumCatalogSize(t *testing.T) {
	c := New(Config{Methods: 10, Clusters: 4, Seed: 1}) // below floor
	if len(c.Methods) < 200 {
		t.Fatalf("catalog floor not applied: %d", len(c.Methods))
	}
}
