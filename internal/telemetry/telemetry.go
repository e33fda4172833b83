// Package telemetry is the unified observability plane for the real RPC
// stack: the live counterpart of the three systems the paper's entire
// methodology rests on. One Plane aggregates
//
//   - Monarch-style monitoring: every call becomes distribution-valued
//     time series keyed by (service, method, cluster, code), aligned to
//     the paper's 30-minute windows (internal/monarch);
//   - Dapper-style tracing: spans with the nine-component breakdown are
//     retained under head-based sampling (internal/trace);
//   - GWP-style profiling: the cycles each call burned are attributed
//     across the Fig. 20 taxonomy (application, compression, networking,
//     serialization, RPC library), folding in the stack's compressor and
//     encryption byte accounting (internal/gwp).
//
// A Plane plugs into the stack through the single stubby.Options.Observer
// hook (see Plane.Apply); Plane.Dataset then assembles a workload.Dataset
// so core.FullReport renders the paper's figure-by-figure analyses over
// real traffic instead of simulated fleets.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/gwp"
	"rpcscale/internal/monarch"
	"rpcscale/internal/secure"
	"rpcscale/internal/stats"
	"rpcscale/internal/stubby"
	"rpcscale/internal/trace"
)

// Metric names the plane exports to its Monarch DB.
const (
	// MetricRPCCount counts calls per window. Counter; labels: service,
	// method, client, server, code.
	MetricRPCCount = "rpc/count"
	// MetricRPCErrors counts failed calls per window. Counter; labels:
	// service, method, code.
	MetricRPCErrors = "rpc/errors"
	// MetricLatency is the completion-time distribution of successful
	// calls, ns. Distribution; labels: service, method, cluster.
	MetricLatency = "rpc/latency"
	// MetricReqBytes / MetricRespBytes are payload size distributions.
	// Distribution; labels: service, method.
	MetricReqBytes  = "rpc/request_bytes"
	MetricRespBytes = "rpc/response_bytes"
	// MetricRetries / MetricRetriesSuppressed count retry attempts the
	// stack issued and retries the budget refused — together the live
	// retry-amplification accounting. Counter; labels: method.
	MetricRetries           = "client/retries"
	MetricRetriesSuppressed = "client/retries_suppressed"
	// MetricBreakerTransitions counts circuit-breaker state changes.
	// Counter; labels: method, from, to.
	MetricBreakerTransitions = "client/breaker_transitions"
	// MetricShed counts requests the server rejected by load shedding
	// before they reached the worker pool. Counter; labels: method.
	MetricShed = "server/shed"
)

// config collects construction-time settings.
type config struct {
	sampleEvery uint64
	capacity    int
	now         func() time.Time
}

// Option configures a Plane built with New.
type Option func(*config)

// WithSampleEvery keeps 1-in-n traces in the span store (head-based, by
// trace ID, as Dapper samples). Monarch series and GWP attribution still
// see every call. Default 1 (keep everything).
func WithSampleEvery(n uint64) Option {
	return func(c *config) { c.sampleEvery = n }
}

// WithSpanCapacity bounds retained spans (0 = unbounded, the default).
func WithSpanCapacity(n int) Option {
	return func(c *config) { c.capacity = n }
}

// WithClock substitutes the wall clock, letting tests place samples on
// chosen Monarch windows deterministically.
func WithClock(now func() time.Time) Option {
	return func(c *config) {
		if now != nil {
			c.now = now
		}
	}
}

// Plane is the observability plane. It is safe for concurrent use from
// any number of channels and servers.
type Plane struct {
	db   *monarch.DB
	prof *gwp.Profiler
	col  *trace.Collector
	comp *compressor.Stats
	enc  *secure.Stats

	now   func() time.Time
	start time.Time

	payloadBytes atomic.Uint64 // all payload bytes observed (split calibration)

	// Robustness totals (Observer's robustness events; see robustness.go).
	retriesAttempted   atomic.Uint64
	retriesSuppressed  atomic.Uint64
	breakerTransitions atomic.Uint64
	shedCalls          atomic.Uint64

	mu   sync.Mutex
	aggs map[aggKey]*winAgg
}

// aggKey identifies one windowed aggregation stream. kind distinguishes
// spans from each robustness event so their metrics stay separate.
type aggKey struct {
	kind    uint8
	service string
	method  string
	client  string
	server  string
	code    trace.ErrorCode
}

const (
	kindRPC uint8 = iota
	kindRetry
	kindRetrySuppressed
	kindBreaker
	kindShed
)

// winAgg buffers one stream's current window; it is flushed into Monarch
// when the window rolls over or Flush is called.
type winAgg struct {
	window time.Time // aligned window start
	count  float64
	lat    *stats.Hist // ns; nil until first success
	req    *stats.Hist // bytes
	resp   *stats.Hist // bytes
}

// New returns a Plane with a fresh Monarch DB, GWP profiler, span
// collector, and stack byte accounting.
func New(opts ...Option) *Plane {
	cfg := config{sampleEvery: 1, now: time.Now}
	for _, o := range opts {
		o(&cfg)
	}
	p := &Plane{
		db:   newDeclaredDB(),
		prof: gwp.New(),
		col: trace.New(
			trace.WithSampleEvery(cfg.sampleEvery),
			trace.WithCapacity(cfg.capacity),
		),
		comp: &compressor.Stats{},
		enc:  &secure.Stats{},
		now:  cfg.now,
		aggs: make(map[aggKey]*winAgg),
	}
	p.start = p.now()
	return p
}

// declared is every metric the plane writes, with its kind.
var declared = map[string]monarch.Kind{
	MetricRPCCount:           monarch.Counter,
	MetricRPCErrors:          monarch.Counter,
	MetricLatency:            monarch.Distribution,
	MetricReqBytes:           monarch.Distribution,
	MetricRespBytes:          monarch.Distribution,
	MetricRetries:            monarch.Counter,
	MetricRetriesSuppressed:  monarch.Counter,
	MetricBreakerTransitions: monarch.Counter,
	MetricShed:               monarch.Counter,
}

// newDeclaredDB builds a Monarch DB on the paper's 30-minute window and
// 700-day retention with every plane metric declared.
func newDeclaredDB() *monarch.DB {
	db := monarch.NewDB()
	for m, k := range declared {
		if err := db.Declare(m, k); err != nil {
			panic(err) // fresh DB; only a telemetry-internal bug can fail
		}
	}
	return db
}

// Reset discards everything observed so far — retained spans, Monarch
// series, GWP samples, pending window aggregates, and the stack byte
// accounting — and restarts the observation clock. Benchmarks call it
// after warmup so the report covers only the measured phase. Holders of a
// previously returned Monarch DB keep the old, frozen store; call Monarch
// again for the live one.
func (p *Plane) Reset() {
	p.mu.Lock()
	p.aggs = make(map[aggKey]*winAgg)
	p.db = newDeclaredDB()
	p.start = p.now()
	p.mu.Unlock()
	p.col.Reset()
	p.prof.Reset()
	p.payloadBytes.Store(0)
	p.retriesAttempted.Store(0)
	p.retriesSuppressed.Store(0)
	p.breakerTransitions.Store(0)
	p.shedCalls.Store(0)
	p.comp.CompressCalls.Store(0)
	p.comp.DecompressCalls.Store(0)
	p.comp.BytesIn.Store(0)
	p.comp.BytesOut.Store(0)
	p.enc.Seals.Store(0)
	p.enc.Opens.Store(0)
	p.enc.BytesEncrypted.Store(0)
}

// Apply returns a copy of opts with the plane plugged in as the stack's
// Observer, and the stack's compressor and encryption byte accounting
// landing in the plane's counters (which the GWP attribution calibrates
// against). Fields the caller already set are left alone.
func (p *Plane) Apply(opts stubby.Options) stubby.Options {
	if opts.Observer == nil {
		opts.Observer = p
	}
	if opts.CompressorStats == nil {
		opts.CompressorStats = p.comp
	}
	if opts.EncryptionStats == nil {
		opts.EncryptionStats = p.enc
	}
	return opts
}

// Monarch returns the plane's monitoring DB with all pending window
// aggregates flushed, so queries see every observed call.
func (p *Plane) Monarch() *monarch.DB {
	p.Flush()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.db
}

// Profiler returns the plane's GWP profiler.
func (p *Plane) Profiler() *gwp.Profiler { return p.prof }

// Collector returns the plane's span store.
func (p *Plane) Collector() *trace.Collector { return p.col }

// CompressorStats returns the compression byte accounting shared with the
// stack (Plane.Apply wires it into stubby.Options).
func (p *Plane) CompressorStats() *compressor.Stats { return p.comp }

// EncryptionStats returns the encryption byte accounting shared with the
// stack.
func (p *Plane) EncryptionStats() *secure.Stats { return p.enc }

// Calls returns the number of spans observed (sampled or not).
func (p *Plane) Calls() uint64 { return p.col.Seen() }

// Errors returns the number of error spans observed.
func (p *Plane) Errors() uint64 { return p.col.ErrorsSeen() }

// CodecJobs returns 0: the stack seals and opens every frame inline.
// Kept only for bench/layers.go, until ROADMAP item 3 drops its metric.
func (p *Plane) CodecJobs() uint64 { return 0 }

// Observe receives one completed span from the stack (the
// stubby.Observer hook). It attributes the span's cycles across the
// GWP taxonomy, folds the call into the Monarch window aggregates, and
// offers the span to the sampling collector.
func (p *Plane) Observe(s *trace.Span) {
	now := p.now()
	if s.Start == 0 {
		p.mu.Lock()
		s.Start = now.Sub(p.start)
		p.mu.Unlock()
	}
	p.payloadBytes.Add(uint64(s.RequestBytes + s.ResponseBytes))

	// GWP attribution sees every call, sampled or not, mirroring how GWP
	// samples independently of Dapper.
	if !s.HasCPUSplit() {
		s.CPUByCategory = p.attribute(s)
		var total float64
		for _, v := range s.CPUByCategory {
			total += v
		}
		s.CPUCycles = total
	}
	p.prof.Record(s.Service, s.Method, &s.CPUByCategory)

	key := aggKey{
		kind:    kindRPC,
		service: s.Service,
		method:  s.Method,
		client:  s.ClientCluster,
		server:  s.ServerCluster,
		code:    s.Err,
	}
	p.mu.Lock()
	a := p.window(key, now)
	a.count++
	if s.Err == trace.OK {
		// The paper excludes error-call latency from distributions but
		// still counts error volume (§2.1); sizes follow latency.
		if a.lat == nil {
			a.lat = stats.NewLatencyHist()
			a.req = stats.NewSizeHist()
			a.resp = stats.NewSizeHist()
		}
		a.lat.Add(float64(s.Breakdown.Total()))
		a.req.Add(float64(s.RequestBytes))
		a.resp.Add(float64(s.ResponseBytes))
	}
	p.mu.Unlock()

	p.col.Collect(s)
}

// attribute splits one live span's measured CPU-side work across the
// Fig. 20 taxonomy, in normalized cycle units (ns of CPU time). The
// application cost is the handler's own time; the cycle tax lives in the
// processing-stack components (marshal, compress, encrypt, frame) — the
// queue and wire components are waiting, not cycles. Per-byte work is
// divided among serialization, compression (weighted by the fraction of
// payload bytes the stack's compressor actually processed, from the live
// byte accounting), and encryption+framing (networking); the remaining
// per-call base is the RPC library itself.
func (p *Plane) attribute(s *trace.Span) [gwp.NumCategories]float64 {
	var out [gwp.NumCategories]float64
	out[gwp.Application] = float64(s.Breakdown[trace.ServerApp])
	stack := float64(s.Breakdown.Stack())
	if stack <= 0 {
		return out
	}
	bytes := float64(s.RequestBytes + s.ResponseBytes)
	// Relative per-byte costs: DEFLATE ~15ns/B when engaged, AES-GCM +
	// framing ~1ns/B, marshal/copy ~0.5ns/B; per-call library base ~3us.
	wComp := 15.0 * bytes * p.compressedFraction()
	wNet := 1.0*bytes + 2000
	wSer := 0.5 * bytes
	wLib := 3000.0
	wTot := wComp + wNet + wSer + wLib
	out[gwp.Compression] = stack * wComp / wTot
	out[gwp.Networking] = stack * wNet / wTot
	out[gwp.Serialization] = stack * wSer / wTot
	out[gwp.RPCLibrary] = stack * wLib / wTot
	return out
}

// compressedFraction estimates, from the stack's live byte accounting,
// what fraction of observed payload bytes passed through the compressor.
func (p *Plane) compressedFraction() float64 {
	seen := p.payloadBytes.Load()
	if seen == 0 {
		return 0
	}
	frac := float64(p.comp.BytesIn.Load()) / float64(seen)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// window returns the aggregate for key's current window, flushing the
// previous window if time rolled past it. Caller holds p.mu.
func (p *Plane) window(key aggKey, now time.Time) *winAgg {
	aligned := now.Truncate(p.db.Window())
	a := p.aggs[key]
	if a != nil && !a.window.Equal(aligned) {
		p.flushLocked(key, a)
		a = nil
	}
	if a == nil {
		a = &winAgg{window: aligned}
		p.aggs[key] = a
	}
	return a
}

// Flush pushes every pending window aggregate into the Monarch DB. It is
// called automatically when a window rolls over and by Monarch/Dataset;
// call it directly before ad-hoc queries mid-window.
func (p *Plane) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, a := range p.aggs {
		p.flushLocked(key, a)
	}
	p.aggs = make(map[aggKey]*winAgg)
}

// flushLocked writes one aggregate's metrics. Caller holds p.mu. The
// monarch DB has its own lock; lock order is always plane -> db.
func (p *Plane) flushLocked(key aggKey, a *winAgg) {
	if a.count == 0 {
		return
	}
	switch key.kind {
	case kindRPC:
		p.write(MetricRPCCount, monarch.Labels{
			"service": key.service, "method": key.method,
			"client": key.client, "server": key.server,
			"code": key.code.String(),
		}, a.window, a.count)
		if key.code != trace.OK {
			p.write(MetricRPCErrors, monarch.Labels{
				"service": key.service, "method": key.method,
				"code": key.code.String(),
			}, a.window, a.count)
		}
		if a.lat != nil {
			labels := monarch.Labels{
				"service": key.service, "method": key.method,
				"cluster": key.server,
			}
			p.writeDist(MetricLatency, labels, a.window, a.lat)
			sizeLabels := monarch.Labels{"service": key.service, "method": key.method}
			p.writeDist(MetricReqBytes, sizeLabels, a.window, a.req)
			p.writeDist(MetricRespBytes, sizeLabels, a.window, a.resp)
		}
	case kindRetry:
		p.write(MetricRetries, monarch.Labels{"method": key.method}, a.window, a.count)
	case kindRetrySuppressed:
		p.write(MetricRetriesSuppressed, monarch.Labels{"method": key.method}, a.window, a.count)
	case kindBreaker:
		// The transition endpoints ride in the cluster label slots.
		p.write(MetricBreakerTransitions, monarch.Labels{
			"method": key.method, "from": key.client, "to": key.server,
		}, a.window, a.count)
	case kindShed:
		p.write(MetricShed, monarch.Labels{"method": key.method}, a.window, a.count)
	}
}

func (p *Plane) write(metric string, labels monarch.Labels, at time.Time, v float64) {
	if err := p.db.Write(metric, labels, at, v); err != nil {
		panic(err) // metrics are declared in New; only a plane bug can fail
	}
}

func (p *Plane) writeDist(metric string, labels monarch.Labels, at time.Time, h *stats.Hist) {
	if err := p.db.WriteDist(metric, labels, at, h); err != nil {
		panic(err)
	}
}
