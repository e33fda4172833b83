package trace

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/gwp"
)

// Collector gathers spans from concurrently executing RPCs, applying
// head-based sampling by trace ID: a trace is either fully collected or
// fully dropped, which is what lets Dapper reconstruct complete trees.
// It also counts every span it sees (sampled or not) so volume statistics
// remain exact even at low sampling rates.
//
// Retained spans are copied into packed records (see record), so a
// collector never holds on to the *Span it was given.
type Collector struct {
	sampleEvery uint64 // collect traces where id % sampleEvery == 0; 1 = all

	seen     atomic.Uint64 // spans offered
	errSeen  atomic.Uint64 // error spans offered
	overflow atomic.Uint64 // spans dropped due to capacity

	// byCode counts every offered span by outcome code (sampled or not),
	// giving the exact error-code distribution of §4 even when the span
	// store samples or overflows.
	byCode [NumErrorCodes]atomic.Uint64

	mu       sync.Mutex
	chunks   [][]record          // retained spans, chunkLen records each
	n        int                 // records across chunks
	names    []spanNames         // interned name tuples, indexed by record.name
	byMethod map[string][]uint32 // Method -> indices into names
	links    []SpanID            // LinkedParents of every record, end to end
	cap      int                 // 0 = unbounded
}

// chunkLen is how many records one chunk holds. A full chunk is never
// copied again, so the store grows without moving what it already holds.
const chunkLen = 1024

// record is one retained span. It holds no pointers, so the garbage
// collector never scans a chunk: the span's strings and tags live once
// per distinct tuple in Collector.names, and its linked parents in
// Collector.links[links : links+nLinks].
type record struct {
	traceID             TraceID
	spanID, parentID    SpanID
	start               time.Duration
	breakdown           Breakdown
	reqBytes, respBytes int64
	cpuCycles           float64
	cpuByCategory       [gwp.NumCategories]float64
	name                uint32 // index into Collector.names
	links, nLinks       uint32
	err                 ErrorCode
	hedged              bool
}

// spanNames is the interned string and tag part of a span.
type spanNames struct {
	method, service, client, server string
	tier                            Tier
	motif                           Motif
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
	c := &Collector{sampleEvery: 1, byMethod: make(map[string][]uint32)}
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

// Collect offers one span. A retained span is copied; the caller keeps
// ownership of s. It is safe for concurrent use.
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
	if c.cap > 0 && c.n >= c.cap {
		c.overflow.Add(1)
		return
	}
	c.push(record{s.TraceID, s.SpanID, s.ParentID, s.Start, s.Breakdown,
		s.RequestBytes, s.ResponseBytes, s.CPUCycles, s.CPUByCategory, c.intern(s),
		uint32(len(c.links)), uint32(len(s.LinkedParents)), s.Err, s.Hedged})
	c.links = append(c.links, s.LinkedParents...)
}

// push appends r to the store, opening a chunk when the last one is full.
// The first chunk starts empty and grows by append, so a collector that
// keeps a handful of spans stays small. Caller holds c.mu.
func (c *Collector) push(r record) {
	if c.n%chunkLen == 0 {
		c.chunks = append(c.chunks, make([]record, 0, min(c.n, chunkLen)))
	}
	last := len(c.chunks) - 1
	c.chunks[last] = append(c.chunks[last], r)
	c.n++
}

// intern returns the index of s's name tuple in c.names, adding it on
// first sight. Caller holds c.mu.
func (c *Collector) intern(s *Span) uint32 {
	key := spanNames{s.Method, s.Service, s.ClientCluster, s.ServerCluster, s.Tier, s.Motif}
	for _, i := range c.byMethod[s.Method] {
		if c.names[i] == key {
			return i
		}
	}
	i := uint32(len(c.names))
	c.names = append(c.names, key)
	c.byMethod[s.Method] = append(c.byMethod[s.Method], i)
	return i
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

// Spans returns the retained spans in collection order, rebuilt from the
// store over one backing array per call. They are the caller's: changing
// one leaves the store as it was, and collection may continue
// concurrently.
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := make([]Span, c.n)
	links := slices.Clone(c.links)
	out := make([]*Span, 0, c.n)
	for _, ch := range c.chunks {
		for j := range ch {
			r, s := &ch[j], &spans[len(out)]
			nm := &c.names[r.name]
			*s = Span{TraceID: r.traceID, SpanID: r.spanID, ParentID: r.parentID,
				Method: nm.method, Service: nm.service, Tier: nm.tier, Motif: nm.motif,
				ClientCluster: nm.client, ServerCluster: nm.server,
				Start: r.start, Breakdown: r.breakdown,
				RequestBytes: r.reqBytes, ResponseBytes: r.respBytes,
				CPUCycles: r.cpuCycles, CPUByCategory: r.cpuByCategory,
				Err: r.err, Hedged: r.hedged}
			if end := r.links + r.nLinks; r.nLinks > 0 {
				s.LinkedParents = links[r.links:end:end]
			}
			out = append(out, s)
		}
	}
	return out
}

// Reset discards retained spans and counters.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.chunks, c.n, c.names, c.links = nil, 0, nil, nil
	clear(c.byMethod)
	c.mu.Unlock()
	c.seen.Store(0)
	c.errSeen.Store(0)
	c.overflow.Store(0)
	for i := range c.byCode {
		c.byCode[i].Store(0)
	}
}
