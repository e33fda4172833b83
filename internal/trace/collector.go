package trace

import (
	"encoding/binary"
	"math"
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
// Retained spans are copied into packed records (see appendRecord), so a
// collector never holds on to the *Span it was given.
type Collector struct {
	sampleEvery uint64 // collect traces where id % sampleEvery == 0; 1 = all

	seen     atomic.Uint64 // spans offered
	errSeen  atomic.Uint64 // error spans offered
	overflow atomic.Uint64 // spans dropped due to capacity

	mu       sync.Mutex
	chunks   [][]byte            // packed records, end to end; none straddles two chunks
	n        int                 // records across chunks
	names    []spanNames         // interned name tuples, indexed by a record's name
	byMethod map[string][]uint32 // Method -> indices into names
	links    []SpanID            // LinkedParents of every record, end to end
	cap      int                 // 0 = unbounded
}

// Every chunk after the first is made with chunkBytes of capacity, and a
// new one is opened when the last has less than maxRecord bytes of room,
// so a chunk is never copied again once another follows it. The first
// grows by append, so a collector that keeps a handful of spans stays
// small. Records hold no pointers, so the garbage collector never scans a
// chunk, and bytes below a chunk's length are never written again.
const (
	chunkBytes = 64 << 10
	// flags and Err, TraceID, sixteen varints, CPUCycles, the mask and
	// every category.
	maxRecord = 2 + 8 + 16*binary.MaxVarintLen64 + 8 + 1 + 8*gwp.NumCategories
)

// Bits of a record's flags byte.
const (
	hasParent    = 1 << iota // ParentID follows SpanID
	isHedged                 // Span.Hedged
	cyclesAreSum             // CPUCycles is the in-order sum of CPUByCategory, not stored
)

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
	if !c.Sampled(s.TraceID) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 && c.n >= c.cap {
		c.overflow.Add(1)
		return
	}
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last])+maxRecord > chunkBytes {
		// The first chunk starts empty; every later one is made whole.
		c.chunks, last = append(c.chunks, make([]byte, 0, chunkBytes*min(c.n, 1))), last+1
	}
	c.chunks[last] = appendRecord(c.chunks[last], s, c.intern(s))
	c.links = append(c.links, s.LinkedParents...)
	c.n++
}

// appendRecord appends s's packed record to b: the flags byte, Err,
// TraceID as 8 fixed bytes, SpanID and (when non-zero) ParentID as
// uvarints, Start, the nine Breakdown components and both sizes as zigzag
// varints, CPUCycles as 8 bytes unless cyclesAreSum, a mask of the
// non-zero CPUByCategory entries and each one's 8 bytes, then the name
// index and the link count as uvarints. Floats are compared and kept by
// their bits, so -0 and NaN come back as they went in.
func appendRecord(b []byte, s *Span, name uint32) []byte {
	var flags, mask byte
	sum := 0.0
	for i, v := range s.CPUByCategory {
		sum += v
		if math.Float64bits(v) != 0 {
			mask |= 1 << i
		}
	}
	if s.ParentID != 0 {
		flags |= hasParent
	}
	if s.Hedged {
		flags |= isHedged
	}
	if math.Float64bits(sum) == math.Float64bits(s.CPUCycles) {
		flags |= cyclesAreSum
	}
	b = binary.LittleEndian.AppendUint64(append(b, flags, byte(s.Err)), uint64(s.TraceID))
	b = binary.AppendUvarint(b, uint64(s.SpanID))
	if flags&hasParent != 0 {
		b = binary.AppendUvarint(b, uint64(s.ParentID))
	}
	b = binary.AppendVarint(b, int64(s.Start))
	for _, d := range s.Breakdown {
		b = binary.AppendVarint(b, int64(d))
	}
	b = binary.AppendVarint(binary.AppendVarint(b, s.RequestBytes), s.ResponseBytes)
	if flags&cyclesAreSum == 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.CPUCycles))
	}
	b = append(b, mask)
	for i, v := range s.CPUByCategory {
		if mask&(1<<i) != 0 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(name)), uint64(len(s.LinkedParents)))
}

// recordReader reads a chunk's records front to back.
type recordReader []byte

func (r *recordReader) fixed() uint64 {
	v := binary.LittleEndian.Uint64(*r)
	*r = (*r)[8:]
	return v
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return v
}

func (r *recordReader) varint() int64 {
	u := r.uvarint() // zigzag, as binary.AppendVarint writes it
	return int64(u>>1) ^ -int64(u&1)
}

// next decodes the record at r's front into s, the inverse of
// appendRecord; its linked parents are the front of links, and next
// returns the rest.
func (r *recordReader) next(s *Span, names []spanNames, links []SpanID) []SpanID {
	flags := (*r)[0]
	s.Err, s.Hedged = ErrorCode((*r)[1]), flags&isHedged != 0
	*r = (*r)[2:]
	s.TraceID, s.SpanID = TraceID(r.fixed()), SpanID(r.uvarint())
	if flags&hasParent != 0 {
		s.ParentID = SpanID(r.uvarint())
	}
	s.Start = time.Duration(r.varint())
	for i := range s.Breakdown {
		s.Breakdown[i] = time.Duration(r.varint())
	}
	s.RequestBytes, s.ResponseBytes = r.varint(), r.varint()
	if flags&cyclesAreSum == 0 {
		s.CPUCycles = math.Float64frombits(r.fixed())
	}
	mask := (*r)[0]
	*r = (*r)[1:]
	for i := range s.CPUByCategory {
		if mask&(1<<i) != 0 {
			s.CPUByCategory[i] = math.Float64frombits(r.fixed())
		}
		if flags&cyclesAreSum != 0 {
			s.CPUCycles += s.CPUByCategory[i]
		}
	}
	nm := &names[r.uvarint()]
	s.Method, s.Service, s.Tier, s.Motif = nm.method, nm.service, nm.tier, nm.motif
	s.ClientCluster, s.ServerCluster = nm.client, nm.server
	if k := r.uvarint(); k > 0 {
		s.LinkedParents, links = links[:k:k], links[k:]
	}
	return links
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

// Spans returns the retained spans in collection order, rebuilt from the
// store over one backing array per call. They are the caller's: changing
// one leaves the store as it was, and collection may continue
// concurrently. The lock is held only to copy the store's headers: what
// lies below a length they captured is never written again, so the
// records are decoded after it is released.
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	chunks, n, names, links := slices.Clone(c.chunks), c.n, c.names, c.links
	c.mu.Unlock()
	links = slices.Clone(links)
	spans, out := make([]Span, n), make([]*Span, n)
	i := 0
	for _, ch := range chunks {
		for r := recordReader(ch); len(r) > 0; i++ {
			links = r.next(&spans[i], names, links)
			out[i] = &spans[i]
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
}
