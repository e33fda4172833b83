// Package workload executes the synthetic fleet catalog against the
// simulator to produce the study's datasets: trace spans with full
// nine-component breakdowns, call trees, per-method descendant/ancestor
// counts, GWP cycle attribution, and Monarch counter series.
//
// The generator is the simulation counterpart of production traffic: every
// span's components come from structural models (method profile x cluster
// state x topology), so the figures computed downstream are emergent, not
// transcribed.
package workload

import (
	"fmt"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// Epoch anchors simulation time zero on the wall clock (the start of the
// paper's observation window, December 2020).
var Epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

// Generator produces spans for (method, cluster, time) triples. It is not
// safe for concurrent use; clone per goroutine via NewGenerator with
// distinct seeds.
type Generator struct {
	Cat  *fleet.Catalog
	Topo *sim.Topology
	Prof *gwp.Profiler

	rng        *stats.RNG
	nonCancel  *fleet.ErrorMix
	nextTrace  uint64
	nextSpanID uint64

	// idBase namespaces trace/span IDs per shard (shardIDBase).
	idBase uint64

	// ColocateBoost is how strongly the cluster manager co-locates
	// nested calls with their parent: the residual cross-cluster
	// probability of a nested call is (1-locality)*(1-ColocateBoost).
	// The default 0.75 models production placement; the co-location
	// what-if study (§5.2) compares against 0.
	ColocateBoost float64

	// Per-graph accounting, reset at the top of Call. depthNodes[d] is
	// the node count at primary depth d; shared tracks this graph's
	// shared-dependency spans so later callers add in-edges instead of
	// regenerating subtrees; pending holds observations of shared spans,
	// deferred to the end of the graph so fan-in edges recorded by later
	// callers are present when the span is observed (and serialized).
	depthNodes  []int
	motifCount  [trace.NumMotifs]uint32
	fanInEdges  int
	sharedNodes int
	shared      map[*fleet.Method]*sharedEntry
	pending     []CallObservation

	// exoMemo holds the last ExoModel.At result per cluster, indexed by
	// Cluster.Index. Every call in a graph shares one time, so a graph
	// computes each cluster's state once.
	exoMemo []exoEntry
}

// exoEntry is one cluster's memoised exogenous state.
type exoEntry struct {
	model *sim.ExoModel
	at    time.Duration
	exo   sim.Exo
}

// exoAt returns c.Exo.At(at) through the memo. At is pure, so a hit
// returns exactly what the call would.
func (g *Generator) exoAt(c *sim.Cluster, at time.Duration) sim.Exo {
	if uint(c.Index) >= uint(len(g.exoMemo)) {
		return c.Exo.At(at)
	}
	e := &g.exoMemo[c.Index]
	if e.model != c.Exo || e.at != at {
		*e = exoEntry{c.Exo, at, c.Exo.At(at)}
	}
	return e.exo
}

// sharedEntry tracks one shared dependency within the graph being
// generated: the span (once built), its fan-in edges, and how many extra
// parents reached it.
type sharedEntry struct {
	primary trace.SpanID   // the spanning-tree parent
	span    *trace.Span    // nil until built, or when not materializing
	extra   []trace.SpanID // fan-in edges; the span's LinkedParents once built
	links   int            // extra in-edges gained so far
	motif   trace.Motif    // motif the node was first generated with
}

// hasEdge reports whether parent p already has an edge to this node
// (primary or fan-in); a repeated call to the same shared dependency from
// one parent is a single graph edge.
func (e *sharedEntry) hasEdge(p trace.SpanID) bool {
	if p == e.primary {
		return true
	}
	for _, q := range e.extra {
		if q == p {
			return true
		}
	}
	return false
}

// Tax-cycle attribution rates. The per-span cycle tax averages
// taxRate of application cycles — the paper's 7.1%-of-total
// (7.1/92.9 = 7.64% of application cycles) — and splits across the
// Fig. 20 categories in the paper's proportions (3.1 : 1.7 : 1.2 : 1.1).
const (
	taxRate        = 0.0764
	compShare      = 3.1 / 7.1
	netShare       = 1.7 / 7.1
	serShare       = 1.2 / 7.1
	libShare       = 1.1 / 7.1
	perByteStack   = 0.35 // ns of stack processing per payload byte
	cancelPerHedge = 0.07 // P(visible cancellation | hedged call)

	// childDispatch is the parent-side cost of issuing one nested call.
	childDispatch = 5 * time.Microsecond
)

// NewGenerator builds a generator. prof may be nil (a private profiler is
// created).
func NewGenerator(cat *fleet.Catalog, topo *sim.Topology, prof *gwp.Profiler, seed uint64) *Generator {
	return NewGeneratorShard(cat, topo, prof, seed, 0)
}

// NewGeneratorShard builds a generator whose trace and span IDs live in a
// disjoint namespace (shard index in the top bits), so multiple
// generators can produce spans for one dataset concurrently without ID
// collisions. Each shard's stream is deterministic in (seed, shard).
func NewGeneratorShard(cat *fleet.Catalog, topo *sim.Topology, prof *gwp.Profiler, seed uint64, shard int) *Generator {
	if prof == nil {
		prof = gwp.New()
	}
	// Errors other than Cancelled come from this mix; cancellations are
	// produced structurally by hedging (§4.4), so excluding them here
	// avoids double counting. The paper's Fig. 23 count shares are
	// Cancelled 45%, EntityNotFound 20%, then resource 9%, permission 8%,
	// deadline 7%, availability 5%, internal 4% and invalid-argument 2%;
	// these weights are that remainder renormalized without Cancelled,
	// rounded.
	nonCancel := fleet.NewErrorMix(
		[]trace.ErrorCode{
			trace.EntityNotFound, trace.NoResource, trace.NoPermission,
			trace.DeadlineExceeded, trace.Unavailable, trace.Internal,
			trace.InvalidArgument,
		},
		[]float64{0.36, 0.16, 0.15, 0.13, 0.09, 0.07, 0.04},
	)
	return &Generator{
		Cat:           cat,
		Topo:          topo,
		Prof:          prof,
		rng:           stats.NewRNG(seed).Child(fmt.Sprintf("workload-%d", shard)),
		nonCancel:     nonCancel,
		ColocateBoost: 0.75,
		idBase:        shardIDBase(shard),
		exoMemo:       make([]exoEntry, len(topo.Clusters)),
	}
}

// CallObservation reports one generated call to optional hooks.
type CallObservation struct {
	Span        *trace.Span // always populated
	Exo         sim.Exo     // server cluster state at call time
	Descendants int
	Ancestors   int

	// Graph summarizes the whole call graph. It is populated only on the
	// observation Call returns (the root), after the graph is complete.
	Graph GraphStat
}

// CallOptions controls one tree generation.
type CallOptions struct {
	// Client pins the caller's cluster; nil picks per the method's
	// locality model.
	Client *sim.Cluster
	// Server pins the root call's serving cluster (nested calls still
	// place per their own models). Used by the cross-cluster latency
	// study (Fig. 19).
	Server *sim.Cluster
	// SameClusterOnly forces client == server (the §3.3 intra-cluster
	// filter).
	SameClusterOnly bool
	// At is the call time within the observation window.
	At time.Duration
	// MaxDepth bounds nesting (<=0 selects the default of 8).
	MaxDepth int
	// Budget bounds the subtree's span count (<=0 selects 4000).
	Budget int
	// Materialize emits spans for nested calls too; otherwise only the
	// root call's span is built (descendant counts are still exact).
	Materialize bool
	// Observe receives every materialized call, and the root call even
	// when Materialize is false.
	Observe func(CallObservation)
}

type callResult struct {
	rct   time.Duration
	nodes int // calls in the subtree including self
}

// Call generates one RPC (and, recursively, its subtree) and returns the
// root observation.
func (g *Generator) Call(m *fleet.Method, opts CallOptions) CallObservation {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 8
	}
	if opts.Budget <= 0 {
		opts.Budget = 4000
	}
	budget := opts.Budget
	tid := g.newTraceID()
	g.resetGraph()
	var rootObs CallObservation
	inner := opts.Observe
	opts.Observe = func(o CallObservation) {
		if o.Span.ParentID == 0 {
			rootObs = o
		}
		if inner != nil {
			inner(o)
		}
	}
	client := opts.Client
	if client == nil {
		client = g.pickClient(m, opts)
	}
	res := g.genCall(m, client, opts.At, 0, &budget, tid, 0, &opts, true, trace.MotifNone)
	// Shared-dependency spans were held back so fan-in edges recorded by
	// later callers made it onto the span; flush them in generation order.
	for _, o := range g.pending {
		opts.Observe(o)
	}
	depth, width := 0, 0
	for d, n := range g.depthNodes {
		if n == 0 {
			continue
		}
		if d > depth {
			depth = d
		}
		if n > width {
			width = n
		}
	}
	rootObs.Graph = GraphStat{
		Spans:       res.nodes,
		Depth:       depth,
		Width:       width,
		FanInEdges:  g.fanInEdges,
		SharedNodes: g.sharedNodes,
		Motifs:      g.motifCount,
	}
	return rootObs
}

// resetGraph clears the per-graph accounting at the top of Call.
func (g *Generator) resetGraph() {
	g.depthNodes = g.depthNodes[:0]
	g.motifCount = [trace.NumMotifs]uint32{}
	g.fanInEdges = 0
	g.sharedNodes = 0
	for k := range g.shared {
		delete(g.shared, k)
	}
	g.pending = g.pending[:0]
}

// noteNode records one graph node at its primary depth.
func (g *Generator) noteNode(depth int) {
	for len(g.depthNodes) <= depth {
		g.depthNodes = append(g.depthNodes, 0)
	}
	g.depthNodes[depth]++
}

// pickClient chooses the caller's cluster for a root call: usually one of
// the method's home clusters (locality), otherwise anywhere.
func (g *Generator) pickClient(m *fleet.Method, opts CallOptions) *sim.Cluster {
	clusters := g.Topo.Clusters
	if opts.SameClusterOnly || g.rng.Bool(m.Locality) {
		return clusters[m.HomeClusters[g.rng.Intn(len(m.HomeClusters))]]
	}
	return clusters[g.rng.Intn(len(clusters))]
}

// pickServer chooses the serving cluster given the client. Nested calls
// get a locality boost: a partition/aggregate parent overwhelmingly fans
// out within its own cluster (the cluster manager co-locates trees).
func (g *Generator) pickServer(m *fleet.Method, client *sim.Cluster, sameOnly, nested bool) *sim.Cluster {
	if sameOnly {
		return client
	}
	locality := m.Locality
	if nested {
		locality = 1 - (1-locality)*(1-g.ColocateBoost)
	}
	if g.rng.Bool(locality) {
		// Co-located placement: the parent's own cluster when the
		// method serves there, otherwise the nearest home cluster.
		for _, h := range m.HomeClusters {
			if g.Topo.Clusters[h] == client {
				return client
			}
		}
		best := g.Topo.Clusters[m.HomeClusters[0]]
		for _, h := range m.HomeClusters[1:] {
			cand := g.Topo.Clusters[h]
			if g.Topo.DistanceKm(client, cand) < g.Topo.DistanceKm(client, best) {
				best = cand
			}
		}
		return best
	}
	return g.Topo.Clusters[m.HomeClusters[g.rng.Intn(len(m.HomeClusters))]]
}

func (g *Generator) newTraceID() trace.TraceID {
	g.nextTrace++
	return trace.TraceID(stats.Mix64((g.idBase | g.nextTrace) + 0x9e3779b97f4a7c15))
}

func (g *Generator) newSpanID() trace.SpanID {
	g.nextSpanID++
	return trace.SpanID(g.idBase | g.nextSpanID)
}

// genCall generates one call and the graph below it. motif tags the span
// when it was produced by a motif branch (cache hit/miss); plain calls
// pass trace.MotifNone.
func (g *Generator) genCall(m *fleet.Method, client *sim.Cluster, at time.Duration, depth int, budget *int, tid trace.TraceID, parent trace.SpanID, opts *CallOptions, isRoot bool, motif trace.Motif) callResult {
	*budget--
	g.noteNode(depth)
	if motif != trace.MotifNone {
		g.motifCount[motif]++
	}
	rng := g.rng
	var server *sim.Cluster
	switch {
	case isRoot && opts.Server != nil:
		server = opts.Server
	case isRoot && opts.SameClusterOnly:
		server = client
	default:
		server = g.pickServer(m, client, false, !isRoot)
	}
	exo := g.exoAt(server, at)
	clientExo := g.exoAt(client, at)

	req, resp := m.SampleSizes(rng)
	spanID := g.newSpanID() // allocated before recursion so children can link

	// Register shared dependencies up front so any caller reached later in
	// this graph links to this span instead of spawning a new subtree.
	var sharedE *sharedEntry
	if m.SharedDep && !isRoot {
		if g.shared == nil {
			g.shared = make(map[*fleet.Method]*sharedEntry)
		}
		sharedE = &sharedEntry{primary: parent, motif: motif}
		g.shared[m] = sharedE
	}

	// Application time target: catalog profile scaled by platform speed
	// and exogenous slowdown (the Fig. 16/17 cluster-state coupling).
	// Per the paper (§2.1), this time *includes* waiting on nested
	// calls — the nesting is invisible to the caller — so children run
	// inside the target and only extend it when a straggler child
	// outlives it.
	appTarget := time.Duration(float64(m.SampleAppTime(rng)) * server.SpeedFactor * exo.SlowdownFactor())

	// Nested calls: children run in parallel with this server as their
	// client (partition/aggregate), so the slowest child gates the
	// parent, plus a small per-child dispatch cost.
	nodes := 1
	dispatched := 0
	var slowest time.Duration

	// Cache-aside: consult the cache tier first. The branch is a pure
	// function of (trace ID, span ID), so graph shapes replay exactly for
	// a fixed seed; a hit elides the backing subtree entirely.
	cacheHit := false
	if m.Cache != nil && depth < opts.MaxDepth && *budget > 0 {
		cacheHit = cacheHitFor(tid, spanID, m.Cache.HitRate)
		cm := trace.MotifCacheMiss
		if cacheHit {
			cm = trace.MotifCacheHit
		}
		cr := g.genCall(m.Cache.Method, server, at, depth+1, budget, tid, spanID, opts, false, cm)
		nodes += cr.nodes
		if cr.rct > slowest {
			slowest = cr.rct
		}
		dispatched++
	}
	if !cacheHit && depth < opts.MaxDepth && *budget > 0 {
		fan := m.SampleFanOut(rng)
		if fan > *budget {
			fan = *budget
		}
		for i := 0; i < fan && *budget > 0; i++ {
			child := m.PickCallee(rng)
			cr := g.genChild(child, server, at, depth+1, budget, tid, spanID, opts)
			nodes += cr.nodes
			if cr.rct > slowest {
				slowest = cr.rct
			}
		}
		dispatched += fan
	}
	// Cross-datacenter replication: synchronous replica writes fan out to
	// the method's other home datacenters, each acked before the call
	// completes (so the farthest replica gates the parent).
	if m.Replicas > 0 && depth < opts.MaxDepth && *budget > 0 {
		for r := 0; r < m.Replicas && *budget > 0; r++ {
			rct := g.genReplica(m, server, at, depth+1, budget, tid, spanID, opts)
			nodes++
			if rct > slowest {
				slowest = rct
			}
			dispatched++
		}
	}
	var childTime time.Duration
	if dispatched > 0 {
		childTime = slowest + time.Duration(dispatched)*childDispatch
	}
	app := appTarget
	if childTime > app {
		// Straggler children push the handler past its own target —
		// but only partially: production parents mitigate stragglers
		// with hedged backup requests (§4.4), so extreme child tails
		// are soft-clamped rather than inherited wholesale.
		excess := childTime - app
		if limit := 3 * appTarget; excess > limit {
			excess = limit + (excess-limit)/5
		}
		app += excess + appTarget/10
	}
	localApp := appTarget

	// Queue components. Server receive queuing scales with the pool's
	// effective utilization: the method's queue factor pushes a
	// congested pool's utilization toward saturation (queue-heavy
	// services run light handlers behind deep queues) and relaxes it
	// for over-provisioned pools.
	qSvc := localApp * 3 / 10
	if qSvc > 5*time.Millisecond {
		qSvc = 5 * time.Millisecond
	}
	if qSvc < 30*time.Microsecond {
		qSvc = 30 * time.Microsecond
	}
	effUtil := exo.CPUUtil
	if m.QueueFactor > 1 {
		effUtil = 1 - (1-effUtil)/m.QueueFactor
	} else if m.QueueFactor > 0 {
		effUtil *= m.QueueFactor
	}
	var b trace.Breakdown
	b[trace.ServerApp] = app
	b[trace.ClientSendQueue] = sim.QueueWait(rng, 20*time.Microsecond, clientExo.CPUUtil*0.6, clientExo)
	b[trace.ServerRecvQueue] = sim.QueueWait(rng, qSvc, effUtil, exo)
	b[trace.ServerSendQueue] = sim.QueueWait(rng, 30*time.Microsecond, exo.CPUUtil*0.5, exo)
	b[trace.ClientRecvQueue] = sim.QueueWait(rng, 30*time.Microsecond, clientExo.CPUUtil*0.5, clientExo)

	// RPC processing + network stack: per-call base plus per-byte
	// serialization/compression/encryption work.
	b[trace.ReqProcStack] = time.Duration((m.StackBase.Sample(rng) + float64(req)*perByteStack) * exo.SlowdownFactor())
	b[trace.RespProcStack] = time.Duration((m.StackBase.Sample(rng)*0.8 + float64(resp)*perByteStack) * exo.SlowdownFactor())

	// Network wire both ways; background network load tracks compute
	// load diurnally.
	netUtil := 0.2 + 0.6*exo.CPUUtil
	b[trace.ReqNetworkWire] = g.Topo.WireOneWay(rng, client, server, req, netUtil)
	b[trace.RespNetworkWire] = g.Topo.WireOneWay(rng, server, client, resp, netUtil)

	// Outcome. Non-cancel errors from the mix; cancellations emerge from
	// hedging below. Failed calls end early, truncating both their
	// latency and the cycles they burned — which is why cancellations
	// (which run nearly to completion before the winner lands) consume
	// an out-sized share of wasted cycles in Fig. 23b.
	code := trace.OK
	errFrac := 1.0
	if rng.Bool(m.ErrorRate * 0.55) {
		code = g.nonCancel.Sample(rng)
		errFrac = 0.1 + 0.5*rng.Float64()
		for i := range b {
			b[i] = time.Duration(float64(b[i]) * errFrac)
		}
		resp = 64
	}

	// CPU attribution. The per-category split rides on the span too, so
	// datasets reconstructed from span dumps keep Fig. 20's taxonomy.
	appCPU := m.CPUCost.Sample(rng) * errFrac
	jitter := 0.7 + 0.6*rng.Float64()
	tax := appCPU * taxRate * jitter
	byCat := [gwp.NumCategories]float64{
		gwp.Application:   appCPU,
		gwp.Compression:   tax * compShare,
		gwp.Networking:    tax * netShare,
		gwp.Serialization: tax * serShare,
		gwp.RPCLibrary:    tax * libShare,
	}
	g.Prof.Record(m.Service.Name, m.Name, &byCat)

	// The span is built only when someone observes it.
	var span *trace.Span
	if opts.Observe != nil && (opts.Materialize || isRoot) {
		span = &trace.Span{
			TraceID:       tid,
			SpanID:        spanID,
			ParentID:      parent,
			Method:        m.Name,
			Service:       m.Service.Name,
			ClientCluster: client.Name,
			ServerCluster: server.Name,
			Start:         at,
			Breakdown:     b,
			RequestBytes:  req,
			ResponseBytes: resp,
			CPUCycles:     appCPU + tax,
			CPUByCategory: byCat,
			Err:           code,
			Tier:          m.Tier,
			Motif:         motif,
		}
	}

	// Hedging: some calls are issued twice; when the loser's
	// cancellation is visible it appears as a Cancelled span that burned
	// most of its cycles (the paper's §4.4 hedging economics).
	hedged := rng.Bool(m.HedgeProb)
	if hedged && rng.Bool(cancelPerHedge) && opts.Materialize && opts.Observe != nil && parent != 0 {
		dup := *span
		dup.SpanID = g.newSpanID()
		dup.Hedged = true
		dup.Err = trace.Cancelled
		dupFrac := 0.4 + 0.6*rng.Float64()
		for i := range dup.Breakdown {
			dup.Breakdown[i] = time.Duration(float64(dup.Breakdown[i]) * dupFrac)
		}
		dupCPU := 0.6 + 0.4*rng.Float64()
		dup.CPUCycles = span.CPUCycles * dupCPU
		for cat := range dup.CPUByCategory {
			dup.CPUByCategory[cat] = span.CPUByCategory[cat] * dupCPU
		}
		g.Prof.Record(m.Service.Name, m.Name, &dup.CPUByCategory)
		opts.Observe(CallObservation{
			Span: &dup, Exo: exo,
			Descendants: 0, Ancestors: depth + 1,
		})
	}

	rct := b.Total()
	if sharedE != nil && span != nil {
		sharedE.span = span
		span.LinkedParents = sharedE.extra
		if sharedE.links > 0 {
			span.Motif = trace.MotifFanIn
		}
	}
	if span != nil {
		obs := CallObservation{
			Span: span, Exo: exo,
			Descendants: nodes - 1, Ancestors: depth,
		}
		if sharedE != nil && !isRoot {
			// Held back: later callers may still add in-edges; Call
			// flushes the pending observations once the graph is done.
			g.pending = append(g.pending, obs)
		} else {
			opts.Observe(obs)
		}
	}
	return callResult{rct: rct, nodes: nodes}
}

// genChild dispatches one nested call, applying the edge-level motifs:
// fan-in reuse of shared dependencies and sidecar proxy hops. Plain
// children fall through to genCall directly, drawing exactly the same
// randomness as the pre-DAG generator.
func (g *Generator) genChild(child *fleet.Method, client *sim.Cluster, at time.Duration, depth int, budget *int, tid trace.TraceID, parent trace.SpanID, opts *CallOptions) callResult {
	// Fan-in: a shared dependency already reached in this graph gains an
	// extra in-edge instead of a fresh subtree. The shared result is
	// consumed concurrently, so the edge adds no nodes and no wait.
	if child.SharedDep {
		if e := g.shared[child]; e != nil {
			if e.hasEdge(parent) {
				// Repeated call from the same parent: the edge exists.
				return callResult{}
			}
			e.links++
			g.fanInEdges++
			if e.links == 1 {
				g.sharedNodes++
				if e.motif != trace.MotifNone {
					g.motifCount[e.motif]--
				}
				g.motifCount[trace.MotifFanIn]++
			}
			e.extra = append(e.extra, parent)
			if e.span != nil {
				e.span.LinkedParents = e.extra
				e.span.Motif = trace.MotifFanIn
			}
			return callResult{}
		}
	}
	// Sidecar: the call is routed through a service-mesh proxy hop.
	if child.SidecarProb > 0 && *budget > 1 && g.rng.Bool(child.SidecarProb) {
		return g.genSidecar(child, client, at, depth, budget, tid, parent, opts)
	}
	return g.genCall(child, client, at, depth, budget, tid, parent, opts, false, trace.MotifNone)
}

// genSidecar interposes a mesh proxy span between parent and child: the
// proxy runs beside the caller, forwards the request, and waits out the
// proxied call, so its response time dominates the child's.
func (g *Generator) genSidecar(m *fleet.Method, client *sim.Cluster, at time.Duration, depth int, budget *int, tid trace.TraceID, parent trace.SpanID, opts *CallOptions) callResult {
	rng := g.rng
	*budget--
	g.noteNode(depth)
	g.motifCount[trace.MotifSidecar]++
	sidecarID := g.newSpanID()
	cr := g.genCall(m, client, at, depth+1, budget, tid, sidecarID, opts, false, trace.MotifNone)

	exo := g.exoAt(client, at)
	req, resp := m.SampleSizes(rng)
	// Loopback hop: tiny fixed stack and wire costs plus a light queue on
	// the proxy, with the proxied call riding inside the handler time.
	var b trace.Breakdown
	b[trace.ServerApp] = cr.rct + 20*time.Microsecond
	b[trace.ClientSendQueue] = 2 * time.Microsecond
	b[trace.ServerRecvQueue] = sim.QueueWait(rng, 10*time.Microsecond, exo.CPUUtil*0.5, exo)
	b[trace.ServerSendQueue] = 2 * time.Microsecond
	b[trace.ClientRecvQueue] = 2 * time.Microsecond
	b[trace.ReqProcStack] = time.Duration(3000 + float64(req)*perByteStack*0.2)
	b[trace.RespProcStack] = time.Duration(3000 + float64(resp)*perByteStack*0.2)
	b[trace.ReqNetworkWire] = time.Microsecond
	b[trace.RespNetworkWire] = time.Microsecond

	// Proxy CPU in the catalog's normalized cycle units (method cost
	// floor ~0.016): a forwarding hop burns roughly half a minimal
	// handler plus a per-byte copy term, all RPC-stack work.
	proxyCPU := 0.008 + 1e-6*float64(req+resp)
	var cycles [gwp.NumCategories]float64
	cycles[gwp.Networking] = proxyCPU
	g.Prof.Record(m.Service.Name, m.Service.Sidecar, &cycles)

	if opts.Observe != nil && opts.Materialize {
		opts.Observe(CallObservation{
			Span: &trace.Span{
				TraceID:       tid,
				SpanID:        sidecarID,
				ParentID:      parent,
				Method:        m.Service.Sidecar,
				Service:       m.Service.Name,
				ClientCluster: client.Name,
				ServerCluster: client.Name,
				Start:         at,
				Breakdown:     b,
				RequestBytes:  req,
				ResponseBytes: resp,
				CPUCycles:     proxyCPU,
				CPUByCategory: cycles,
				Tier:          trace.TierStateless,
				Motif:         trace.MotifSidecar,
			},
			Exo:         exo,
			Descendants: cr.nodes, Ancestors: depth,
		})
	}
	return callResult{rct: b.Total(), nodes: cr.nodes + 1}
}

// genReplica generates one synchronous cross-datacenter replica write:
// the serving cluster forwards the request to another of the method's
// home datacenters and waits for a small ack.
func (g *Generator) genReplica(m *fleet.Method, primary *sim.Cluster, at time.Duration, depth int, budget *int, tid trace.TraceID, parent trace.SpanID, opts *CallOptions) time.Duration {
	rng := g.rng
	*budget--
	g.noteNode(depth)
	g.motifCount[trace.MotifReplica]++

	target := g.Topo.Clusters[m.HomeClusters[rng.Intn(len(m.HomeClusters))]]
	if target == primary {
		for _, h := range m.HomeClusters {
			if c := g.Topo.Clusters[h]; c != primary {
				target = c
				break
			}
		}
	}
	exo := g.exoAt(target, at)
	primaryExo := g.exoAt(primary, at)
	req, _ := m.SampleSizes(rng)
	resp := int64(64) // replica ack
	app := time.Duration(float64(m.SampleAppTime(rng)) * 0.5 * target.SpeedFactor * exo.SlowdownFactor())

	var b trace.Breakdown
	b[trace.ServerApp] = app
	b[trace.ClientSendQueue] = sim.QueueWait(rng, 20*time.Microsecond, primaryExo.CPUUtil*0.6, primaryExo)
	b[trace.ServerRecvQueue] = sim.QueueWait(rng, 30*time.Microsecond, exo.CPUUtil, exo)
	b[trace.ServerSendQueue] = sim.QueueWait(rng, 30*time.Microsecond, exo.CPUUtil*0.5, exo)
	b[trace.ClientRecvQueue] = 2 * time.Microsecond
	b[trace.ReqProcStack] = time.Duration((m.StackBase.Sample(rng) + float64(req)*perByteStack) * exo.SlowdownFactor())
	b[trace.RespProcStack] = time.Duration(m.StackBase.Sample(rng) * 0.5)
	netUtil := 0.2 + 0.6*exo.CPUUtil
	b[trace.ReqNetworkWire] = g.Topo.WireOneWay(rng, primary, target, req, netUtil)
	b[trace.RespNetworkWire] = g.Topo.WireOneWay(rng, target, primary, resp, netUtil)

	appCPU := m.CPUCost.Sample(rng) * 0.5
	var cycles [gwp.NumCategories]float64
	cycles[gwp.Application] = appCPU
	g.Prof.Record(m.Service.Name, m.Name, &cycles)

	spanID := g.newSpanID()
	if opts.Observe != nil && opts.Materialize {
		opts.Observe(CallObservation{
			Span: &trace.Span{
				TraceID:       tid,
				SpanID:        spanID,
				ParentID:      parent,
				Method:        m.Name,
				Service:       m.Service.Name,
				ClientCluster: primary.Name,
				ServerCluster: target.Name,
				Start:         at,
				Breakdown:     b,
				RequestBytes:  req,
				ResponseBytes: resp,
				CPUCycles:     appCPU,
				CPUByCategory: cycles,
				Tier:          m.Tier,
				Motif:         trace.MotifReplica,
			},
			Exo:         exo,
			Descendants: 0, Ancestors: depth,
		})
	}
	return b.Total()
}

// cacheHitFor decides a cache-aside branch as a pure hash of the call's
// identity — no RNG draw — so the same (seed, trace, span) always takes
// the same branch and graph shapes replay exactly.
func cacheHitFor(tid trace.TraceID, id trace.SpanID, rate float64) bool {
	x := stats.Mix64(uint64(tid) ^ uint64(id)*0x9e3779b97f4a7c15)
	return float64(x>>11)/(1<<53) < rate
}

// HedgedCancellation generates a standalone cancelled duplicate for a
// method — used by volume runs where trees are not materialized but the
// fleet-wide error mix still needs its hedging-induced cancellations.
func (g *Generator) HedgedCancellation(m *fleet.Method, at time.Duration) *trace.Span {
	obs := g.Call(m, CallOptions{At: at, MaxDepth: 1, Budget: 2})
	span := obs.Span
	span.Hedged = true
	span.Err = trace.Cancelled
	frac := 0.4 + 0.6*g.rng.Float64()
	for i := range span.Breakdown {
		span.Breakdown[i] = time.Duration(float64(span.Breakdown[i]) * frac)
	}
	return span
}
