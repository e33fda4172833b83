// Package rpcscale reproduces "A Cloud-Scale Characterization of Remote
// Procedure Calls" (Seemakhupt et al., SOSP 2023) as a runnable system:
// a Stubby-style RPC stack, Dapper-style tracing, Monarch-style
// monitoring, GWP-style CPU profiling, and a discrete fleet simulator
// with a method catalog calibrated to the paper's published anchors.
//
// This package is the public facade: it re-exports the stable entry
// points of the internal packages so downstream users can build fleets,
// generate datasets, and run the paper's analyses without reaching into
// internal paths.
//
// Simulated fleets:
//
//	topo := rpcscale.NewTopology(rpcscale.DefaultTopologyConfig())
//	cat := rpcscale.NewCatalog(rpcscale.CatalogConfig{Methods: 2000, Clusters: len(topo.Clusters), Seed: 1})
//	ds := rpcscale.Generate(cat, topo, rpcscale.DefaultRunConfig())
//	fmt.Print(rpcscale.Report(ds, rpcscale.ReportOptions{}))
//
// Live traffic through the real stack, observed by the telemetry plane
// (the paper's Monarch + Dapper + GWP trio over one RPC stack):
//
//	plane := rpcscale.NewTelemetry()
//	srv := rpcscale.NewServer(rpcscale.WithTelemetry(plane), rpcscale.WithCluster("local"))
//	srv.Register("greeter.Greeter/Hello", handler)
//	ch, _ := rpcscale.Dial(addr, rpcscale.WithTelemetry(plane), rpcscale.WithCluster("local"))
//	ch.Call(ctx, "greeter.Greeter/Hello", payload)
//	fmt.Print(rpcscale.Report(plane.Dataset(), rpcscale.ReportOptions{}))
package rpcscale

import (
	"context"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/core"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/fleet"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stubby"
	"rpcscale/internal/telemetry"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// Fleet modeling.
type (
	// Topology is the simulated fleet: regions, datacenters, clusters.
	Topology = sim.Topology
	// TopologyConfig sizes a generated topology.
	TopologyConfig = sim.TopologyConfig
	// Catalog is the synthetic method catalog ("the fleet workload").
	Catalog = fleet.Catalog
	// CatalogConfig sizes a catalog.
	CatalogConfig = fleet.Config
	// Method is one RPC method with its behavioral models.
	Method = fleet.Method
	// Dataset is a generated study dataset (spans, trees, profiles).
	Dataset = workload.Dataset
	// RunConfig sizes a dataset generation run.
	RunConfig = workload.RunConfig
	// Generator produces spans for (method, cluster, time) triples.
	Generator = workload.Generator
	// ReportOptions selects what Report includes.
	ReportOptions = core.ReportOptions
	// MonarchDB is the time-series monitoring store.
	MonarchDB = monarch.DB
)

// Tracing, telemetry, and the RPC stack.
type (
	// Span is one traced RPC with its nine-component breakdown.
	Span = trace.Span
	// Breakdown is the nine-component latency decomposition (Fig. 9).
	Breakdown = trace.Breakdown
	// Collector gathers spans with head-based sampling.
	Collector = trace.Collector
	// Plane is the unified observability plane over the real stack:
	// Monarch time series, GWP cycle attribution, and Dapper span
	// retention fed by every call (see NewTelemetry, WithTelemetry).
	Plane = telemetry.Plane
	// TelemetryOption configures a Plane built with NewTelemetry.
	TelemetryOption = telemetry.Option
	// Channel is a client connection of the real RPC stack.
	Channel = stubby.Channel
	// Server is the real RPC stack's server.
	Server = stubby.Server
	// StubbyOptions configures the real stack.
	StubbyOptions = stubby.Options
	// Handler serves one RPC method on the real stack.
	Handler = stubby.Handler
	// Stream is one end of a bidirectional message stream (see
	// Channel.OpenStream and Server.RegisterBidi): Send/Recv exchange
	// messages under per-stream credit flow control on the zero-copy bulk
	// lane; CloseSend half-closes, Close abandons.
	Stream = stubby.Stream
	// BidiHandler serves a bidirectional streaming method.
	BidiHandler = stubby.BidiHandler
	// CallOption adjusts one call or stream (WithBulkLane,
	// WithStreamWindow); pass to Channel.Call or Channel.OpenStream.
	CallOption = stubby.CallOption
	// Pool is a client-side channel pool: calls and streams spread across
	// several connections, with failover and cross-replica hedging.
	Pool = stubby.Pool
	// RetryPolicy configures automatic retries of transient failures.
	RetryPolicy = stubby.RetryPolicy
	// Compression selects a payload compression algorithm.
	Compression = compressor.Algorithm
)

// Fault injection and robustness.
type (
	// FaultInjector is a deterministic, seed-driven fault plane: attach
	// it to an endpoint with WithFaults and every drop, delay, reject,
	// and corruption replays identically from the same seed.
	FaultInjector = faultplane.Injector
	// FaultConfig is an injector's full fault schedule.
	FaultConfig = faultplane.Config
	// FaultRule is one probabilistic fault rule (rates per fault kind,
	// optionally restricted to a method pattern).
	FaultRule = faultplane.Rule
	// FaultIncident is a time-windowed burst of extra fault rules, the
	// window measured in call sequence numbers so it replays exactly.
	FaultIncident = faultplane.Incident
	// FaultStats is an injector's per-scope decision accounting.
	FaultStats = faultplane.Stats
	// RetryBudget is a token bucket capping client retry amplification,
	// shared across the channels it is installed on.
	RetryBudget = stubby.RetryBudget
	// BreakerConfig configures a per-(channel, method) circuit breaker.
	BreakerConfig = stubby.BreakerConfig
	// BreakerState is a circuit breaker's state (closed, open, half-open).
	BreakerState = stubby.BreakerState
	// Observer receives what the stack reports about itself — spans,
	// retry, breaker and shedding events, data-plane events; the
	// telemetry Plane implements it.
	Observer = stubby.Observer
)

// Circuit-breaker states.
const (
	BreakerClosed   = stubby.BreakerClosed
	BreakerOpen     = stubby.BreakerOpen
	BreakerHalfOpen = stubby.BreakerHalfOpen
)

// NewFaultInjector builds a deterministic fault injector from a schedule.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultplane.New(cfg) }

// NewRetryBudget returns a retry budget of maxTokens, refunding
// successCredit tokens per success. Non-positive arguments select the
// defaults (10 tokens, 0.1 credit — a sustained amplification cap of 1.1).
func NewRetryBudget(maxTokens, successCredit float64) *RetryBudget {
	return stubby.NewRetryBudget(maxTokens, successCredit)
}

// DefaultRetryPolicy retries transient failures up to 3 attempts with
// exponential backoff.
func DefaultRetryPolicy() RetryPolicy { return stubby.DefaultRetryPolicy() }

// ContextWithCallID tags ctx with a caller-assigned logical call ID. The
// fault plane keys its decisions on it, making injected faults
// independent of goroutine interleaving; without one, injectors fall
// back to arrival order.
func ContextWithCallID(ctx context.Context, id uint64) context.Context {
	return stubby.ContextWithCallID(ctx, id)
}

// Compression algorithms for WithCompression.
const (
	CompressionNone  = compressor.None
	CompressionFlate = compressor.Flate
)

// NewTopology generates a fleet topology.
func NewTopology(cfg TopologyConfig) *Topology { return sim.NewTopology(cfg) }

// DefaultTopologyConfig is a medium fleet (6 regions, 36 clusters).
func DefaultTopologyConfig() TopologyConfig { return sim.DefaultTopology() }

// NewCatalog generates a calibrated method catalog.
func NewCatalog(cfg CatalogConfig) *Catalog { return fleet.New(cfg) }

// DefaultCatalogConfig is the test-scale catalog (1000 methods).
func DefaultCatalogConfig() CatalogConfig { return fleet.DefaultConfig() }

// Generate runs the simulation pipeline and returns the study dataset.
// It is the context-free convenience form of GenerateContext.
func Generate(cat *Catalog, topo *Topology, cfg RunConfig) *Dataset {
	return workload.Generate(context.Background(), cat, topo, cfg)
}

// GenerateContext runs the simulation pipeline under a context: cancel it
// to stop every generation shard at its next sample boundary and get the
// partial dataset accumulated so far.
func GenerateContext(ctx context.Context, cat *Catalog, topo *Topology, cfg RunConfig) *Dataset {
	return workload.Generate(ctx, cat, topo, cfg)
}

// DefaultRunConfig is the fast test-scale run.
func DefaultRunConfig() RunConfig { return workload.DefaultRun() }

// NewGenerator builds a span generator for custom experiments.
func NewGenerator(cat *Catalog, topo *Topology, seed uint64) *Generator {
	return workload.NewGenerator(cat, topo, nil, seed)
}

// Report runs every analysis of the study and renders the complete
// figure-by-figure report.
func Report(ds *Dataset, opts ReportOptions) string { return core.FullReport(ds, opts) }

// --- Telemetry plane ---

// NewTelemetry returns an observability plane: a Monarch DB on the
// paper's 30-minute windows, a GWP profiler, a sampling span collector,
// and the stack byte accounting, all fed by every call of any channel or
// server carrying WithTelemetry(plane).
func NewTelemetry(opts ...TelemetryOption) *Plane { return telemetry.New(opts...) }

// WithWindow sets the plane's Monarch alignment window (default 30m).
func WithWindow(d time.Duration) TelemetryOption { return telemetry.WithWindow(d) }

// WithRetention sets the plane's Monarch retention (default 700 days).
func WithRetention(d time.Duration) TelemetryOption { return telemetry.WithRetention(d) }

// WithSampleEvery keeps 1-in-n traces in the plane's span store;
// Monarch series and GWP attribution still see every call.
func WithSampleEvery(n uint64) TelemetryOption { return telemetry.WithSampleEvery(n) }

// WithSpanCapacity bounds the plane's retained spans (0 = unbounded).
func WithSpanCapacity(n int) TelemetryOption { return telemetry.WithSpanCapacity(n) }

// Labels selects Monarch series in MonarchDB.Query.
type Labels = monarch.Labels

// Metric names the telemetry plane exports to its Monarch DB; query them
// with plane.Monarch().Query(metric, labels, from, to).
const (
	MetricRPCCount  = telemetry.MetricRPCCount  // Counter: service, method, client, server, code
	MetricRPCErrors = telemetry.MetricRPCErrors // Counter: service, method, code
	MetricLatency   = telemetry.MetricLatency   // Distribution (ns): service, method, cluster
	MetricReqBytes  = telemetry.MetricReqBytes  // Distribution: service, method
	MetricRespBytes = telemetry.MetricRespBytes // Distribution: service, method

	MetricRetries            = telemetry.MetricRetries            // Counter: method
	MetricRetriesSuppressed  = telemetry.MetricRetriesSuppressed  // Counter: method
	MetricBreakerTransitions = telemetry.MetricBreakerTransitions // Counter: method, from, to
	MetricShed               = telemetry.MetricShed               // Counter: method
)

// --- Monarch and collector constructors ---

// MonarchOption configures NewMonarchDB.
type MonarchOption = monarch.Option

// NewMonarchDB returns a standalone monitoring DB (the plane owns its
// own; this is for custom pipelines like the growth history).
func NewMonarchDB(opts ...MonarchOption) *MonarchDB { return monarch.NewDB(opts...) }

// WithMonarchWindow sets a standalone DB's alignment window.
func WithMonarchWindow(d time.Duration) MonarchOption { return monarch.WithWindow(d) }

// WithMonarchRetention sets a standalone DB's retention horizon.
func WithMonarchRetention(d time.Duration) MonarchOption { return monarch.WithRetention(d) }

// CollectorOption configures NewSpanCollector.
type CollectorOption = trace.CollectorOption

// NewSpanCollector returns a standalone span collector.
func NewSpanCollector(opts ...CollectorOption) *Collector { return trace.New(opts...) }

// WithCollectorSampleEvery keeps 1-in-n traces (head-based).
func WithCollectorSampleEvery(n uint64) CollectorOption { return trace.WithSampleEvery(n) }

// WithCollectorCapacity bounds retained spans (0 = unbounded).
func WithCollectorCapacity(n int) CollectorOption { return trace.WithCapacity(n) }

// --- The real RPC stack ---

// stackConfig is the resolved configuration of Dial / NewServer /
// NewPool.
type stackConfig struct {
	opts          stubby.Options
	serverCluster string
	plane         *telemetry.Plane
	budget        *stubby.RetryBudget
}

// Option configures the real RPC stack's constructors (Dial, NewServer,
// NewPool).
type Option func(*stackConfig)

// WithTelemetry plugs an observability plane into the endpoint as its
// Observer: spans, Monarch series, and GWP cycle attribution for every
// call a channel makes, and the robustness events (retries, breaker
// transitions, shed requests), flow into plane.
func WithTelemetry(p *Plane) Option {
	return func(c *stackConfig) { c.plane = p }
}

// WithCluster labels this endpoint's placement (appears as the client or
// server cluster on spans).
func WithCluster(name string) Option {
	return func(c *stackConfig) { c.opts.ClusterName = name }
}

// WithServerCluster labels the callee's placement on spans emitted by a
// dialed channel. Defaults to the channel's own cluster (loopback).
func WithServerCluster(name string) Option {
	return func(c *stackConfig) { c.serverCluster = name }
}

// WithCompression enables payload compression. Payloads under threshold
// bytes stay uncompressed (small RPCs lose more cycles than bytes);
// threshold <= 0 keeps the 512-byte default.
func WithCompression(algo Compression, threshold int) Option {
	return func(c *stackConfig) {
		c.opts.Compression = algo
		if threshold > 0 {
			c.opts.CompressThreshold = threshold
		}
	}
}

// WithCollector attaches a standalone span collector (independent of any
// telemetry plane).
func WithCollector(col *Collector) Option {
	return func(c *stackConfig) { c.opts.Collector = col }
}

// WithWorkers sets the server handler pool size.
func WithWorkers(n int) Option {
	return func(c *stackConfig) { c.opts.Workers = n }
}

// WithQueueLens bounds the client send queue and the server receive
// queue — where the paper's queuing latency lives. Zero keeps a default.
func WithQueueLens(send, recv int) Option {
	return func(c *stackConfig) {
		c.opts.SendQueueLen = send
		c.opts.RecvQueueLen = recv
	}
}

// WithSecret sets the pre-shared transport secret (both ends must agree).
func WithSecret(secret []byte) Option {
	return func(c *stackConfig) { c.opts.Secret = secret }
}

// WithStubbyOptions seeds the configuration from a full options struct;
// later Options override its fields.
func WithStubbyOptions(opts StubbyOptions) Option {
	return func(c *stackConfig) { c.opts = opts }
}

// WithFaults attaches a deterministic fault injector to the endpoint:
// channels consult it before each attempt, servers before each handled
// request. Build one with NewFaultInjector; the same seed replays the
// same fault schedule.
func WithFaults(inj *FaultInjector) Option {
	return func(c *stackConfig) { c.opts.Faults = inj }
}

// WithRetryPolicy makes dialed channels retry transient failures
// themselves per the policy, instead of every caller hand-rolling it.
func WithRetryPolicy(policy RetryPolicy) Option {
	return func(c *stackConfig) { c.opts.Retry = &policy }
}

// WithRetryBudget caps the channel's retry amplification with a shared
// token bucket. If no retry policy was configured, the default one is
// installed to carry it. Share one budget across a pool's channels so
// the cap covers the aggregate stream.
func WithRetryBudget(b *RetryBudget) Option {
	return func(c *stackConfig) { c.budget = b }
}

// WithCircuitBreaker gives dialed channels a circuit breaker tracking
// state per method: consecutive transient failures open the circuit,
// which then fails fast until a cooldown probe succeeds.
func WithCircuitBreaker(cfg BreakerConfig) Option {
	return func(c *stackConfig) { c.opts.Breaker = &cfg }
}

// WithLoadShedding makes servers reject new requests with Unavailable
// once the receive queue holds at least threshold requests — failing
// fast under overload instead of queuing toward a missed deadline.
func WithLoadShedding(threshold int) Option {
	return func(c *stackConfig) { c.opts.ShedThreshold = threshold }
}

// --- Per-call options ---

// WithStreamWindow sets one stream's per-direction credit window in
// bytes (default 256 KiB). It bounds both the unconsumed bytes the peer
// may buffer and the size of a single stream message.
func WithStreamWindow(n int) CallOption { return stubby.WithStreamWindow(n) }

// WithBulkLane forces the zero-copy bulk lane on or off for one call
// regardless of payload size; by default payloads of 16 KiB and more
// take it.
func WithBulkLane(enabled bool) CallOption { return stubby.WithBulkLane(enabled) }

// FreeResponse hands a response buffer returned by Call back to the data
// plane's buffer pool. Bulk-lane responses arrive in a pooled buffer the
// caller owns outright; recycling it here keeps the receive path
// allocation-free under load. Optional — dropping the buffer is always
// legal. The caller must not touch buf afterwards.
func FreeResponse(buf []byte) { stubby.FreeResponse(buf) }

// resolve applies the options and wires the plane in.
func resolve(opts []Option) stackConfig {
	var c stackConfig
	for _, o := range opts {
		o(&c)
	}
	if c.budget != nil {
		policy := stubby.DefaultRetryPolicy()
		if c.opts.Retry != nil {
			policy = *c.opts.Retry
		}
		policy.Budget = c.budget
		c.opts.Retry = &policy
	}
	if c.plane != nil {
		c.opts = c.plane.Apply(c.opts)
	}
	if c.serverCluster == "" {
		c.serverCluster = c.opts.ClusterName
	}
	return c
}

// NewServer starts a real-stack RPC server (see examples/quickstart).
func NewServer(opts ...Option) *Server {
	return stubby.NewServer(resolve(opts).opts)
}

// Dial connects a real-stack client channel to addr.
func Dial(addr string, opts ...Option) (*Channel, error) {
	c := resolve(opts)
	return stubby.Dial(addr, c.serverCluster, c.opts)
}

// NewPool dials a channel pool of the given size to addr.
func NewPool(addr string, size int, opts ...Option) (*Pool, error) {
	c := resolve(opts)
	return stubby.NewPool(addr, c.serverCluster, size, c.opts)
}
