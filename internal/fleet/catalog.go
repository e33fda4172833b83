package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// Config sizes a synthetic catalog.
type Config struct {
	// Methods is the catalog size. The paper studies "over 10,000"
	// methods; tests default to 1,000, which preserves every
	// distributional shape at lower cost.
	Methods int
	// Clusters is the number of clusters in the topology the catalog
	// will run on (methods get home clusters assigned here).
	Clusters int
	// Seed drives all randomized choices.
	Seed uint64
}

// Catalog is the synthetic fleet: methods indexed by latency rank, their
// services, and the popularity sampler.
type Catalog struct {
	// Methods is ordered by latency rank (median completion time
	// ascending), the x-axis ordering of the paper's per-method figures.
	Methods  []*Method
	Services map[string]*Service

	popCum []float64 // cumulative popularity for sampling
}

// Latency tier boundaries (§2.3 calibration; see DESIGN.md §4).
const (
	fastTierEnd = 0.10 // methods below this rank fraction are sub-10.7ms
	slowTierBeg = 0.95 // methods above are the multi-second tier
)

var (
	fastTierLo = 150 * time.Microsecond
	fastTierHi = 10700 * time.Microsecond // 10.7 ms — the paper's median floor for 90% of methods
	mainTierHi = 400 * time.Millisecond
	slowTierHi = 3 * time.Second
)

// namedSpec pins the paper's named services (Table 1 and §2.6) to
// explicit popularity shares and latency ranks.
type namedSpec struct {
	method     string
	service    string
	class      ServiceClass
	popularity float64
	// rankFrac places the method on the latency axis (fraction of the
	// catalog; small = fast). Ranks < lowLatencyGroup place the method
	// in the "100 lowest-latency methods" set.
	rankFrac float64
	layer    Layer
	// cpuMedian is the median normalized CPU cost per call.
	cpuMedian float64
	reqSize   int64 // typical request bytes (Table 1)
	respSize  int64
	// queueFactor scales server queue waits (queue-heavy services > 1).
	queueFactor float64
}

// namedSpecs encodes the calibration targets:
//   - networkdisk totals 35% of calls (Write alone 28%), §2.6
//   - top-10 methods total 58% of calls, §2.3
//   - the eight studied services of Table 1 exist with their classes
//   - ML Inference is rare (0.17% of calls) but CPU-heavy (§2.6)
func namedSpecs() []namedSpec {
	return []namedSpec{
		{"networkdisk/Write", "networkdisk", Storage, 0.28, 0.002, 0, 0.010, 32 * 1024, 256, 1.0},
		{"networkdisk/Read", "networkdisk", Storage, 0.05, 0.105, 0, 0.012, 256, 32 * 1024, 1.0},
		{"networkdisk/Stat", "networkdisk", Storage, 0.02, 0.004, 0, 0.006, 128, 128, 1.0},
		{"spanner/ReadRows", "spanner", Storage, 0.05, 0.18, 0, 0.030, 800, 4096, 1.0},
		{"spanner/Commit", "spanner", Storage, 0.03, 0.30, 0, 0.045, 2048, 128, 1.0},
		{"kvstore/Search", "kvstore", LatencySensitive, 0.04, 0.0005, 0, 0.008, 128, 512, 0.5},
		{"kvstore/Set", "kvstore", LatencySensitive, 0.02, 0.001, 0, 0.008, 512, 64, 0.5},
		{"f1/ProcessPacket", "f1", Compute, 0.04, 0.35, 2, 0.150, 75, 4096, 1.2},
		{"bigtable/SearchValue", "bigtable", Storage, 0.03, 0.15, 1, 0.025, 1024, 2048, 1.0},
		{"bigquery/Exec", "bigquery", Analytics, 0.02, 0.55, 2, 0.120, 4096, 16384, 1.0},
		{"ssdcache/Lookup", "ssdcache", Storage, 0.015, 0.007, 0, 0.009, 400, 2048, 8.0},
		{"videometadata/GetMetadata", "videometadata", Storage, 0.005, 0.12, 1, 0.020, 32 * 1024, 8192, 6.0},
		{"mlinference/Infer", "mlinference", Compute, 0.0017, 0.060, 0, 2.0, 512, 1024, 0.8},
	}
}

// New generates a calibrated catalog.
func New(cfg Config) *Catalog {
	if cfg.Methods < 200 {
		cfg.Methods = 200
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = 36
	}
	root := stats.NewRNG(cfg.Seed)
	cat := &Catalog{Services: make(map[string]*Service)}

	n := cfg.Methods
	specs := namedSpecs()

	// --- Latency-rank reservation for named methods. ---
	nameAtRank := make(map[int]*namedSpec, len(specs))
	for i := range specs {
		rank := int(specs[i].rankFrac * float64(n))
		for nameAtRank[rank] != nil {
			rank++
		}
		nameAtRank[rank] = &specs[i]
	}

	// --- Popularity for the generic tail. ---
	var namedMass float64
	for _, s := range specs {
		namedMass += s.popularity
	}
	genericCount := n - len(specs)
	genericMass := 1 - namedMass
	// Fit the Zipf exponent so the top-87 generic methods carry enough
	// mass for the paper's "top-100 methods = 91% of calls" anchor:
	// named mass (~61%) + top-87 generic must reach ~91%.
	genericTopK := 100 - len(specs)
	targetTopFrac := (0.91 - namedMass) / genericMass
	zipfS := fitZipfShare(genericCount, genericTopK, targetTopFrac)
	genericZipf := stats.NewZipf(genericCount, zipfS, 2)

	// Cap generic weights below the 10th named weight so the top-10
	// anchor (58%) holds by construction.
	capWeight := 0.019
	genericWeights := make([]float64, genericCount)
	var gw float64
	for i := range genericWeights {
		w := genericZipf.Share(i)
		if w*genericMass > capWeight {
			w = capWeight / genericMass
		}
		genericWeights[i] = w
		gw += w
	}
	for i := range genericWeights {
		genericWeights[i] = genericWeights[i] / gw * genericMass
	}

	// --- Generic services. ---
	genericServices := n / 50
	if genericServices < 8 {
		genericServices = 8
	}

	// Assign generic popularity ranks to latency ranks: biased toward
	// low latency for popular methods (the paper's fast-and-popular
	// head), with the slowest decile capped to ~1.1% of calls below.
	freeRanks := make([]int, 0, genericCount)
	for r := 0; r < n; r++ {
		if nameAtRank[r] == nil {
			freeRanks = append(freeRanks, r)
		}
	}
	assignRng := root.Child("latency-assign")
	// Popularity rank p gets a latency position drawn with a Beta-like
	// skew. The "100 lowest-latency methods = 40% of calls" mass is
	// carried by the named storage/KV methods pinned there, so popular
	// generics are biased toward the low-middle of the axis (above the
	// bottom decile), and unpopular generics fill uniformly.
	latencyOf := make([]int, genericCount)
	taken := make([]bool, len(freeRanks))
	place := func(p int, frac float64) {
		pos := int(frac * float64(len(freeRanks)))
		if pos >= len(freeRanks) {
			pos = len(freeRanks) - 1
		}
		for i := 0; i < len(freeRanks); i++ {
			j := (pos + i) % len(freeRanks)
			if !taken[j] {
				taken[j] = true
				latencyOf[p] = freeRanks[j]
				return
			}
		}
	}
	for p := 0; p < genericCount; p++ {
		if p < genericCount/3 {
			// Popular third: low-biased but kept above the bottom decile.
			u := math.Pow(assignRng.Float64(), 1.0+2.0*(1-3*float64(p)/float64(genericCount)))
			place(p, 0.10+0.90*u)
		} else {
			place(p, assignRng.Float64())
		}
	}

	// --- Build methods. ---
	cat.Methods = make([]*Method, n)
	buildRng := root.Child("method-models")
	genericIdx := 0
	slowCut := int(slowTierBeg * float64(n))
	for rank := 0; rank < n; rank++ {
		if spec := nameAtRank[rank]; spec != nil {
			cat.Methods[rank] = buildNamedMethod(cat, spec, rank, n, buildRng)
		}
	}
	// Generic methods: popularity rank order is perm-independent; walk
	// popularity ranks and drop each into its assigned latency rank.
	for p := 0; p < genericCount; p++ {
		rank := latencyOf[p]
		svcName := fmt.Sprintf("svc%03d", genericIdx%genericServices)
		m := buildGenericMethod(cat, svcName, rank, n, genericWeights[p], buildRng)
		cat.Methods[rank] = m
		genericIdx++
	}

	// --- Slow-decile popularity cap: slowest 10% of methods carry 1.1%
	// of calls (§2.3), redistributing the excess to the fast half. ---
	rebalanceSlowTail(cat.Methods, slowCut, 0.011)

	// --- Layers, callees, placement, tiers. ---
	wireRng := root.Child("wiring")
	assignLayersAndCallees(cat.Methods, wireRng)
	assignPlacement(cat.Methods, cfg.Clusters, wireRng)
	for _, m := range cat.Methods {
		m.Tier = tierForClass(m.Service.Class)
	}

	// --- Normalize popularity and build the sampler. ---
	var total float64
	for _, m := range cat.Methods {
		total += m.Popularity
	}
	cat.popCum = make([]float64, n)
	acc := 0.0
	for i, m := range cat.Methods {
		m.Popularity /= total
		m.LatencyRank = i
		acc += m.Popularity
		cat.popCum[i] = acc
	}
	cat.popCum[n-1] = 1
	return cat
}

// medianForRank maps a latency rank to the method's target median RCT.
func medianForRank(rank, n int) time.Duration {
	r := float64(rank) / float64(n)
	logLerp := func(lo, hi time.Duration, f float64) time.Duration {
		return time.Duration(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
	}
	switch {
	case r < fastTierEnd:
		return logLerp(fastTierLo, fastTierHi, r/fastTierEnd)
	case r < slowTierBeg:
		return logLerp(fastTierHi, mainTierHi, (r-fastTierEnd)/(slowTierBeg-fastTierEnd))
	default:
		return logLerp(mainTierHi, slowTierHi, (r-slowTierBeg)/(1-slowTierBeg))
	}
}

// latencyModel builds the per-method application-time distribution for a
// target median. The mixture structure implements the paper's per-method
// shape: a small fast-path mode (cache hits) that pins P1 under ~657 us
// for 90% of methods, a main lognormal body, and a slow-tail mode that
// produces the multi-second P99s of the slowest tier.
func latencyModel(rank, n int, rng *stats.RNG) stats.Dist {
	r := float64(rank) / float64(n)
	median := float64(medianForRank(rank, n))

	// Main body: P99/median spread. The emergent per-method P99 also
	// absorbs queue, wire, and straggler-child tails, so the body factor
	// is kept modest to land the paper's "50% of methods have P99 >=
	// 225 ms" crossing near the median-rank method.
	tf := math.Exp(math.Log(1.6) + rng.Float64()*math.Log(2.8)) // 1.6x..4.5x
	main := stats.LogNormalFromMedianP99(median, median*tf)

	components := []stats.Dist{main}
	weights := []float64{1}

	if r < 0.92 {
		// Fast path: several percent of calls short-circuit (cache hits)
		// in under ~300 us, which pins method P1s near the paper's
		// 657 us bound even after stack/wire floors are added.
		fastMedian := float64(100*time.Microsecond) * (0.7 + 0.6*rng.Float64())
		if fastMedian > median {
			fastMedian = median * 0.8
		}
		fast := stats.LogNormal{Mu: math.Log(fastMedian), Sigma: 0.4}
		w := 0.04 + 0.08*rng.Float64()
		components = append(components, fast)
		weights = append(weights, w)
		weights[0] -= w
	}

	// Slow tail: stragglers well beyond the body. The slowest tier gets
	// a heavier, longer tail (multi-second to minute-scale), which also
	// drives the "slowest 10% of methods consume 89% of RPC time"
	// anchor through their inflated means.
	slowFactor := 3 + 5*rng.Float64()
	slowWeight := 0.003 + 0.005*rng.Float64()
	if r >= slowTierBeg {
		// Tier C: P99 lands >= 5s and means reach tens of seconds, which
		// is what lets ~1% of calls carry most of the total RPC time.
		slowFactor = 30 + 50*rng.Float64()
		slowWeight = 0.10 + 0.08*rng.Float64()
	}
	slow := stats.LogNormal{Mu: math.Log(median * slowFactor), Sigma: 0.6}
	components = append(components, slow)
	weights = append(weights, slowWeight)
	weights[0] -= slowWeight

	return stats.NewMixture(components, weights)
}

// sizeModel builds request/response size distributions. Method-median
// request sizes are log-spread around ~1.5 KB with responses around
// ~300 B (§2.5), each with an in-method heavy tail reaching the paper's
// P99 196 KB / 563 KB fleet scale.
func sizeModel(rng *stats.RNG, reqTypical, respTypical int64) (req, resp stats.Dist) {
	build := func(typical int64, tailMax float64) stats.Dist {
		med := float64(typical)
		body := stats.LogNormal{Mu: math.Log(med), Sigma: 0.5 + 0.6*rng.Float64()}
		tail := stats.NewPareto(med*8, 1.1, tailMax)
		w := 0.02 + 0.04*rng.Float64()
		return stats.NewMixture([]stats.Dist{body, tail}, []float64{1 - w, w})
	}
	return build(reqTypical, 4e6), build(respTypical, 1.2e7)
}

// genericSizes draws a generic method's typical sizes: most methods are
// write-dominant (median response below median request, §2.5).
func genericSizes(rng *stats.RNG) (reqTypical, respTypical int64) {
	req := math.Exp(math.Log(100) + rng.Float64()*math.Log(300)) // 100B..30KB
	ratio := math.Exp(rng.NormFloat64()*1.1 - 0.8)               // median ~0.45, heavy both ways
	resp := req * ratio
	if resp < 64 {
		resp = 64
	}
	return int64(req), int64(resp)
}

// cpuModel builds the per-call CPU cost distribution: a floor near the
// paper's ~0.017 normalized-cycle cheapest calls plus a heavy-tailed
// variable part whose P99 is one-to-two orders above the median (§4.2).
func cpuModel(rng *stats.RNG, median float64) stats.Dist {
	sigma := 1.0 + 1.0*rng.Float64() // P99/median ~ 10x..100x
	body := stats.LogNormal{Mu: math.Log(median), Sigma: sigma}
	return stats.Shifted{Base: body, Offset: 0.016}
}

func buildNamedMethod(cat *Catalog, spec *namedSpec, rank, n int, rng *stats.RNG) *Method {
	svc := cat.service(spec.service, spec.class)
	mRng := rng.Child(spec.method)
	req, resp := sizeModel(mRng, spec.reqSize, spec.respSize)
	m := &Method{
		Name:        spec.method,
		Service:     svc,
		Index:       rank,
		Popularity:  spec.popularity,
		Layer:       spec.layer,
		AppTime:     latencyModel(rank, n, mRng),
		StackBase:   stackModel(mRng, spec.class),
		ReqSize:     req,
		RespSize:    resp,
		CPUCost:     cpuModel(mRng, spec.cpuMedian),
		QueueFactor: spec.queueFactor,
		ErrorRate:   0.012 + 0.015*mRng.Float64(),
		HedgeProb:   hedgeProbFor(spec.class, mRng),
		Locality:    localityFor(spec.class, mRng),
	}
	svc.Methods = append(svc.Methods, m)
	return m
}

func buildGenericMethod(cat *Catalog, svcName string, rank, n int, popularity float64, rng *stats.RNG) *Method {
	classes := []ServiceClass{Storage, Compute, Analytics, Generic, Generic}
	mRng := rng.Child(fmt.Sprintf("generic-%d", rank))
	class := classes[mRng.Intn(len(classes))]
	svc := cat.service(svcName, class)
	reqTyp, respTyp := genericSizes(mRng)
	req, resp := sizeModel(mRng, reqTyp, respTyp)
	cpuMedian := math.Exp(math.Log(0.008) + mRng.Float64()*math.Log(30)) // 0.008..0.24
	m := &Method{
		Name:        fmt.Sprintf("%s/M%04d", svcName, rank),
		Service:     svc,
		Index:       rank,
		Popularity:  popularity,
		AppTime:     latencyModel(rank, n, mRng),
		StackBase:   stackModel(mRng, class),
		ReqSize:     req,
		RespSize:    resp,
		CPUCost:     cpuModel(mRng, cpuMedian),
		QueueFactor: genericQueueFactor(mRng),
		ErrorRate:   0.008 + 0.022*mRng.Float64(),
		HedgeProb:   hedgeProbFor(class, mRng),
		Locality:    localityFor(class, mRng),
	}
	svc.Methods = append(svc.Methods, m)
	return m
}

// stackModel gives the per-call RPC processing base cost.
// Latency-sensitive services are stack-heavy relative to their tiny app
// time (§3.3's KV-Store category).
func stackModel(rng *stats.RNG, class ServiceClass) stats.Dist {
	base := float64(15*time.Microsecond) * (0.6 + 0.8*rng.Float64())
	if class == LatencySensitive {
		base *= 3
	}
	return stats.Shifted{
		Base:   stats.Exponential{MeanVal: base * 0.5},
		Offset: base,
	}
}

// genericQueueFactor makes most pools lightly queued with a minority of
// congested, queue-dominated pools.
func genericQueueFactor(rng *stats.RNG) float64 {
	if rng.Bool(0.15) {
		return 3 + 6*rng.Float64()
	}
	return 0.6 + 0.8*rng.Float64()
}

func hedgeProbFor(class ServiceClass, rng *stats.RNG) float64 {
	switch class {
	case Storage, LatencySensitive:
		return 0.10 + 0.15*rng.Float64()
	default:
		return 0.02 + 0.05*rng.Float64()
	}
}

func localityFor(class ServiceClass, rng *stats.RNG) float64 {
	switch class {
	case LatencySensitive:
		return 0.92 + 0.06*rng.Float64()
	case Storage:
		return 0.75 + 0.15*rng.Float64()
	default:
		return 0.60 + 0.25*rng.Float64()
	}
}

func (c *Catalog) service(name string, class ServiceClass) *Service {
	svc := c.Services[name]
	if svc == nil {
		svc = &Service{Name: name, Class: class, Sidecar: name + "/sidecar"}
		c.Services[name] = svc
	}
	return svc
}

// rebalanceSlowTail rescales the popularity of methods at or beyond
// slowCut so they total targetMass, returning the excess to the rest
// proportionally.
func rebalanceSlowTail(methods []*Method, slowCut int, targetMass float64) {
	var slowMass, fastMass float64
	for i, m := range methods {
		if i >= slowCut {
			slowMass += m.Popularity
		} else {
			fastMass += m.Popularity
		}
	}
	if slowMass <= targetMass || fastMass == 0 {
		return
	}
	scaleSlow := targetMass / slowMass
	scaleFast := (fastMass + slowMass - targetMass) / fastMass
	for i, m := range methods {
		if i >= slowCut {
			m.Popularity *= scaleSlow
		} else {
			m.Popularity *= scaleFast
		}
	}
}

// assignLayersAndCallees gives every method a layer and a callee set from
// strictly lower layers (layer-0 methods may call other layer-0 methods
// of lower latency rank, modeling replication sub-calls; the strict
// ordering guarantees termination together with the workload depth cap).
func assignLayersAndCallees(methods []*Method, rng *stats.RNG) {
	// Layer distribution for generic methods (named ones are pinned).
	layerWeights := []float64{0.40, 0.22, 0.16, 0.13, 0.09}
	var byLayer [NumLayers][]*Method
	for _, m := range methods {
		if m.Layer == 0 && !isNamed(m) {
			u := rng.Float64()
			acc := 0.0
			for l, w := range layerWeights {
				acc += w
				if u <= acc {
					m.Layer = Layer(l)
					break
				}
			}
		}
		byLayer[m.Layer] = append(byLayer[m.Layer], m)
	}
	for _, m := range methods {
		var pool []*Method
		if m.Layer == 0 {
			// Replication peers: earlier layer-0 methods only.
			for _, peer := range byLayer[0] {
				if peer.Index < m.Index {
					pool = append(pool, peer)
				}
			}
			pool = fasterThan(pool, m)
			m.LeafProb = 0.55 + 0.25*rng.Float64()
			m.FanOut = stats.NewMixture(
				[]stats.Dist{
					stats.LogNormal{Mu: math.Log(2.5), Sigma: 0.5},
					stats.NewPareto(8, 1.4, 200),
				},
				[]float64{0.93, 0.07},
			)
		} else {
			for l := Layer(0); l < m.Layer; l++ {
				pool = append(pool, byLayer[l]...)
			}
			// A parent's application time includes its nested calls
			// (§2.1), and its latency model was calibrated as the
			// total, so callees must be faster methods: partition/
			// aggregate parents wait on quick storage leaves, not on
			// peers slower than themselves.
			pool = fasterThan(pool, m)
			m.LeafProb = 0.15 + 0.25*rng.Float64()
			if m.Index < len(methods)/10 {
				// Sub-10ms methods cannot orchestrate thousand-way
				// fan-outs; their trees are modest.
				m.FanOut = stats.NewMixture(
					[]stats.Dist{
						stats.LogNormal{Mu: math.Log(2.5), Sigma: 0.6},
						stats.NewPareto(8, 1.5, 64),
					},
					[]float64{0.95, 0.05},
				)
			} else {
				medianFan := 3 + 10*rng.Float64()
				m.FanOut = stats.NewMixture(
					[]stats.Dist{
						stats.LogNormal{Mu: math.Log(medianFan), Sigma: 0.7},
						stats.NewPareto(40, 1.2, 2000),
					},
					[]float64{0.90, 0.10},
				)
			}
		}
		if len(pool) == 0 {
			m.LeafProb = 1
			continue
		}
		// Pick 2-6 callees, popularity-biased: popular methods are
		// called from many places.
		want := 2 + rng.Intn(5)
		if want > len(pool) {
			want = len(pool)
		}
		seen := make(map[*Method]bool, want)
		for len(seen) < want {
			cand := pool[rng.Intn(len(pool))]
			if rng.Bool(0.5) {
				// Popularity-biased draw: resample proportional-ish.
				best := cand
				for t := 0; t < 2; t++ {
					alt := pool[rng.Intn(len(pool))]
					if alt.Popularity > best.Popularity {
						best = alt
					}
				}
				cand = best
			}
			seen[cand] = true
		}
		m.Callees = make([]*Method, 0, len(seen))
		for cm := range seen {
			m.Callees = append(m.Callees, cm)
		}
		sort.Slice(m.Callees, func(i, j int) bool { return m.Callees[i].Index < m.Callees[j].Index })
	}
}

// fasterThan filters a callee pool to methods with a strictly lower
// latency rank than m (children are faster than their parents, so nested
// waiting fits inside the parent's calibrated application time).
func fasterThan(pool []*Method, m *Method) []*Method {
	out := pool[:0]
	for _, p := range pool {
		if p.Index < m.Index {
			out = append(out, p)
		}
	}
	return out
}

// tierForClass derives a method's default tier from its service class:
// storage and analytics services own durable state, the in-memory
// KV/latency-sensitive services are the memcached tier, and compute plus
// the generic long tail are stateless. Motif packs may retag.
func tierForClass(class ServiceClass) trace.Tier {
	switch class {
	case Storage, Analytics:
		return trace.TierStateful
	case LatencySensitive:
		return trace.TierCache
	default:
		return trace.TierStateless
	}
}

func isNamed(m *Method) bool {
	switch m.Service.Name {
	case "networkdisk", "spanner", "kvstore", "f1", "bigtable", "bigquery", "ssdcache", "videometadata", "mlinference":
		return true
	}
	return false
}

// assignPlacement gives every method a set of home clusters and, within
// the home set, its serving footprint. Popular services run in many
// clusters, long-tail services in few (driving Fig. 16's per-cluster
// sample spreads).
func assignPlacement(methods []*Method, clusters int, rng *stats.RNG) {
	for _, m := range methods {
		want := 3 + int(m.Popularity*float64(clusters)*40)
		if isNamed(m) {
			want = clusters * 3 / 4 // studied services are everywhere
		}
		if want > clusters {
			want = clusters
		}
		if want < 1 {
			want = 1
		}
		perm := rng.Perm(clusters)
		m.HomeClusters = append([]int(nil), perm[:want]...)
		sort.Ints(m.HomeClusters)
	}
}

// fitZipfShare bisects the Zipf exponent s so that the top k of n ranks
// carry the target share of mass.
func fitZipfShare(n, k int, target float64) float64 {
	if k <= 0 || k >= n || target <= 0 || target >= 1 {
		return 1.0
	}
	lo, hi := 0.01, 4.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		z := stats.NewZipf(n, mid, 2)
		if z.CumShare(k) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SampleMethod draws a method by popularity.
func (c *Catalog) SampleMethod(rng *stats.RNG) *Method {
	u := rng.Float64()
	i := sort.SearchFloat64s(c.popCum, u)
	if i >= len(c.Methods) {
		i = len(c.Methods) - 1
	}
	return c.Methods[i]
}

// MethodByName finds a method by its fully qualified name, or nil.
func (c *Catalog) MethodByName(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// TopByPopularity returns the k most popular methods, descending.
func (c *Catalog) TopByPopularity(k int) []*Method {
	sorted := append([]*Method(nil), c.Methods...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Popularity > sorted[j].Popularity })
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// PopularityShare returns the combined call share of the k most popular
// methods.
func (c *Catalog) PopularityShare(k int) float64 {
	var total float64
	for _, m := range c.TopByPopularity(k) {
		total += m.Popularity
	}
	return total
}

// ServiceShare returns a service's share of fleet calls.
func (c *Catalog) ServiceShare(service string) float64 {
	svc := c.Services[service]
	if svc == nil {
		return 0
	}
	var total float64
	for _, m := range svc.Methods {
		total += m.Popularity
	}
	return total
}
