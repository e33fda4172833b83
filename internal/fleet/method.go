package fleet

import (
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// Layer places a method in the call hierarchy: higher layers call lower
// ones, so call trees terminate. Storage leaves sit at layer 0, frontends
// at the top.
type Layer int

// NumLayers is the height of the calling hierarchy. With fan-out mostly
// at the top two layers, emergent tree depths land in the paper's
// "wider than deep" regime (P99 depth < 10 for half of methods).
const NumLayers = 5

// Method is one RPC method of the synthetic fleet with its behavioral
// models. All distributions are sampled with the caller's RNG so the
// catalog itself is immutable and safe for concurrent use.
type Method struct {
	Name    string
	Service *Service
	Index   int // position in the catalog (stable identity)

	// LatencyRank is the method's position when sorted by median
	// latency (the x-axis of the paper's per-method figures).
	LatencyRank int

	// Popularity is the method's share of fleet call volume (sums to 1
	// across the catalog).
	Popularity float64

	Layer Layer

	// AppTime models handler processing time (ns) on a nominal-speed,
	// idle cluster; the simulator scales it by cluster speed and
	// exogenous slowdown. For non-leaf methods this is the local
	// compute only — nested calls add on top, and the span generator
	// folds child latencies into the parent's application time exactly
	// as Dapper does.
	AppTime stats.Dist

	// StackBase is the per-call RPC processing cost (ns) excluding the
	// per-byte serialization work, which scales with message size.
	StackBase stats.Dist

	// ReqSize and RespSize model message sizes (bytes, >= 64).
	ReqSize  stats.Dist
	RespSize stats.Dist

	// LeafProb is the probability an invocation makes no nested calls.
	LeafProb float64
	// FanOut is the number of child calls when not a leaf.
	FanOut stats.Dist
	// Callees are the methods children are drawn from (uniformly).
	Callees []*Method

	// CPUCost models normalized CPU cycles per call. Drawn
	// independently of latency and size, reproducing the paper's
	// finding that neither predicts CPU cost (§4.2).
	CPUCost stats.Dist

	// QueueFactor scales server-side queue waits for this method's
	// serving pool. The paper's queue-heavy services (SSD cache, Video
	// Metadata, §3.3.1) run light handlers behind deep queues; a factor
	// above 1 models that pool's congestion.
	QueueFactor float64

	// ErrorRate is the per-call probability of a non-OK outcome.
	ErrorRate float64

	// HedgeProb is the probability a call is issued with hedging
	// enabled, the main source of Cancelled outcomes (§4.4).
	HedgeProb float64

	// Locality is the probability the client runs in the same cluster
	// as the server.
	Locality float64

	// HomeClusters are indices (into the topology's cluster list) where
	// the method's servers run.
	HomeClusters []int

	// Tier is the method's state discipline (stateless/stateful/cache),
	// following the three-tier decomposition of "Complexity at Scale".
	// The catalog derives it from the service class; motif packs may
	// retag methods (cache-aside promotes its lookup tier to cache).
	Tier trace.Tier

	// --- Motif wiring, set by ApplyMotifs (all zero without motifs). ---

	// SharedDep marks a fan-in target: within one call graph the method
	// is invoked at most once, and every further caller links to the
	// existing span (an extra in-edge) instead of spawning a new subtree.
	SharedDep bool

	// Cache configures cache-aside: calls consult Cache.Method first and
	// branch deterministically on hit/miss.
	Cache *CacheAside

	// SidecarProb is the probability a call to this method is routed
	// through a sidecar proxy hop (an extra span between caller and
	// callee).
	SidecarProb float64

	// Replicas is the cross-datacenter replication factor: each call
	// additionally writes to this many replicas in other datacenters.
	Replicas int
}

// CacheAside is the cache-aside motif configuration of one method.
type CacheAside struct {
	// Method is the cache-tier method consulted before the handler runs.
	Method *Method
	// HitRate is the deterministic hit probability: the branch is a pure
	// function of (trace ID, span ID), so a graph's shape replays
	// exactly for a fixed seed.
	HitRate float64
}

// SampleAppTime draws handler time as a duration.
func (m *Method) SampleAppTime(rng *stats.RNG) time.Duration {
	return time.Duration(m.AppTime.Sample(rng))
}

// SampleSizes draws request and response sizes, clamped to the paper's
// 64-byte minimum (a cache line).
func (m *Method) SampleSizes(rng *stats.RNG) (req, resp int64) {
	req = int64(m.ReqSize.Sample(rng))
	resp = int64(m.RespSize.Sample(rng))
	if req < 64 {
		req = 64
	}
	if resp < 64 {
		resp = 64
	}
	return req, resp
}

// SampleFanOut draws the number of nested calls for one invocation.
func (m *Method) SampleFanOut(rng *stats.RNG) int {
	if len(m.Callees) == 0 || rng.Bool(m.LeafProb) {
		return 0
	}
	n := int(m.FanOut.Sample(rng))
	if n < 1 {
		n = 1
	}
	return n
}

// PickCallee selects a child method for a nested call.
func (m *Method) PickCallee(rng *stats.RNG) *Method {
	return m.Callees[rng.Intn(len(m.Callees))]
}

// ErrorMix is a distribution of error types (Fig. 23).
type ErrorMix struct {
	codes []trace.ErrorCode
	cum   []float64
}

// NewErrorMix builds a mix from codes and weights (normalized).
func NewErrorMix(codes []trace.ErrorCode, weights []float64) *ErrorMix {
	if len(codes) == 0 || len(codes) != len(weights) {
		panic("fleet: error mix needs matching codes and weights")
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &ErrorMix{codes: codes, cum: cum}
}

// Sample draws one error code.
func (e *ErrorMix) Sample(rng *stats.RNG) trace.ErrorCode {
	u := rng.Float64()
	for i, c := range e.cum {
		if u <= c {
			return e.codes[i]
		}
	}
	return e.codes[len(e.codes)-1]
}
