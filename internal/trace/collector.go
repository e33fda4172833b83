package trace

import (
	"sync"
	"sync/atomic"

	"rpcscale/internal/stats"
)

// Collector gathers spans from concurrently executing RPCs, applying
// head-based sampling by trace ID: a trace is either fully collected or
// fully dropped, which is what lets Dapper reconstruct complete trees.
// It also counts every span it sees (sampled or not) so volume statistics
// remain exact even at low sampling rates.
type Collector struct {
	sampleEvery uint64 // collect traces where id % sampleEvery == 0; 1 = all

	seen     atomic.Uint64 // spans offered
	sampled  atomic.Uint64 // spans retained
	errSeen  atomic.Uint64 // error spans offered
	overflow atomic.Uint64 // spans dropped due to capacity

	// byCode counts every offered span by outcome code (sampled or not),
	// giving the exact error-code distribution of §4 even when the span
	// store samples or overflows.
	byCode [NumErrorCodes]atomic.Uint64

	mu    sync.Mutex
	spans []*Span
	cap   int // 0 = unbounded
}

// CollectorOption configures a Collector built with New.
type CollectorOption func(*Collector)

// WithSampleEvery keeps 1-in-n traces (head-based, by trace ID). n <= 1
// collects everything, which is the default.
func WithSampleEvery(n uint64) CollectorOption {
	return func(c *Collector) {
		if n == 0 {
			n = 1
		}
		c.sampleEvery = n
	}
}

// WithCapacity bounds retained spans; past the bound, sampled spans are
// counted in Overflow and dropped. 0 (the default) is unbounded.
func WithCapacity(n int) CollectorOption {
	return func(c *Collector) { c.cap = n }
}

// New returns a collector. With no options it collects every span of
// every trace, unbounded.
func New(opts ...CollectorOption) *Collector {
	c := &Collector{sampleEvery: 1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Sampled reports whether spans of the given trace are retained. Callers
// on the hot path can skip span construction entirely when false.
func (c *Collector) Sampled(id TraceID) bool {
	return uint64(id)%c.sampleEvery == 0
}

// Collect offers one span. It is safe for concurrent use.
func (c *Collector) Collect(s *Span) {
	c.seen.Add(1)
	if s.Err.IsError() {
		c.errSeen.Add(1)
	}
	if int(s.Err) < len(c.byCode) {
		c.byCode[s.Err].Add(1)
	}
	if !c.Sampled(s.TraceID) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 && len(c.spans) >= c.cap {
		c.overflow.Add(1)
		return
	}
	c.spans = append(c.spans, s)
	c.sampled.Add(1)
}

// Seen returns the number of spans offered, sampled or not.
func (c *Collector) Seen() uint64 { return c.seen.Load() }

// ErrorsSeen returns the number of error spans offered.
func (c *Collector) ErrorsSeen() uint64 { return c.errSeen.Load() }

// Overflow returns how many sampled spans were dropped at capacity.
func (c *Collector) Overflow() uint64 { return c.overflow.Load() }

// SeenByCode returns how many spans ended with each outcome code,
// indexed by ErrorCode. Counts cover every offered span, sampled or not.
func (c *Collector) SeenByCode() [NumErrorCodes]uint64 {
	var out [NumErrorCodes]uint64
	for i := range c.byCode {
		out[i] = c.byCode[i].Load()
	}
	return out
}

// Spans returns the retained spans. The returned slice is a snapshot;
// collection may continue concurrently.
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Reset discards retained spans and counters.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
	c.seen.Store(0)
	c.sampled.Store(0)
	c.errSeen.Store(0)
	c.overflow.Store(0)
	for i := range c.byCode {
		c.byCode[i].Store(0)
	}
}

// MethodAggregate accumulates the per-method distributions used by the
// per-method figures: completion time, tax ratio, component groups,
// sizes, CPU cost, call volume.
type MethodAggregate struct {
	Method string

	Calls  uint64
	Errors uint64

	Latency  *stats.Hist // completion time, ns
	Tax      *stats.Hist // tax latency, ns
	TaxRatio *stats.Sample
	Queue    *stats.Hist // total queuing, ns
	WireNet  *stats.Hist // wire + stack combined (Fig. 12's RW+RN), ns

	ReqBytes  *stats.Hist
	RespBytes *stats.Hist
	SizeRatio *stats.Sample // response/request

	CPU *stats.Hist // normalized cycles (only annotated spans)

	TotalLatency float64 // sum of completion times, ns (for "total RPC time" shares)
	TotalBytes   float64 // request + response bytes
	TotalCPU     float64 // sum of normalized cycles
}

// NewMethodAggregate returns an empty aggregate for a method.
func NewMethodAggregate(method string) *MethodAggregate {
	return &MethodAggregate{
		Method:    method,
		Latency:   stats.NewLatencyHist(),
		Tax:       stats.NewLatencyHist(),
		TaxRatio:  stats.NewSample(0),
		Queue:     stats.NewLatencyHist(),
		WireNet:   stats.NewLatencyHist(),
		ReqBytes:  stats.NewSizeHist(),
		RespBytes: stats.NewSizeHist(),
		SizeRatio: stats.NewSample(0),
		CPU:       stats.NewHist(1e-6, 1.1),
	}
}

// Observe folds one span into the aggregate.
func (a *MethodAggregate) Observe(s *Span) {
	a.Calls++
	if s.Err.IsError() {
		a.Errors++
		// The paper excludes the latency of error RPCs from latency
		// distributions (§2.1) but still counts their volume and cost.
		a.TotalCPU += s.CPUCycles
		return
	}
	lat := float64(s.Breakdown.Total())
	a.Latency.Add(lat)
	a.Tax.Add(float64(s.Breakdown.Tax()))
	a.TaxRatio.Add(s.Breakdown.TaxRatio())
	a.Queue.Add(float64(s.Breakdown.Queue()))
	a.WireNet.Add(float64(s.Breakdown.Wire() + s.Breakdown.Stack()))
	a.ReqBytes.Add(float64(s.RequestBytes))
	a.RespBytes.Add(float64(s.ResponseBytes))
	if s.RequestBytes > 0 {
		a.SizeRatio.Add(float64(s.ResponseBytes) / float64(s.RequestBytes))
	}
	if s.CPUCycles > 0 {
		a.CPU.Add(s.CPUCycles)
	}
	a.TotalLatency += lat
	a.TotalBytes += float64(s.RequestBytes + s.ResponseBytes)
	a.TotalCPU += s.CPUCycles
}

// AggregateByMethod folds spans into per-method aggregates.
func AggregateByMethod(spans []*Span) map[string]*MethodAggregate {
	out := make(map[string]*MethodAggregate)
	for _, s := range spans {
		a := out[s.Method]
		if a == nil {
			a = NewMethodAggregate(s.Method)
			out[s.Method] = a
		}
		a.Observe(s)
	}
	return out
}
