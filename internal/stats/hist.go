package stats

import (
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// Shape is a histogram kind: the lower bound of its first bucket and the
// factor its buckets grow by. Every histogram of one kind points to one
// Shape, built once, so a histogram's header carries a pointer instead
// of three floats. A Shape does not change after NewShape, so any number
// of goroutines may read it.
type Shape struct {
	min    float64 // lower bound of bucket 0
	growth float64 // geometric bucket growth factor
	logG   float64 // cached log(growth)
}

// NewShape returns the shape whose first bucket starts at min and whose
// buckets grow by the given factor. min must be positive and growth > 1.
func NewShape(min, growth float64) *Shape {
	if min <= 0 || growth <= 1 {
		panic(fmt.Sprintf("stats: invalid histogram shape min=%v growth=%v", min, growth))
	}
	return &Shape{min: min, growth: growth, logG: math.Log(growth)}
}

// Hist returns an empty histogram of shape s.
func (s *Shape) Hist() Hist { return Hist{shape: s, minSeen: math.Inf(1)} }

// newHist returns a new empty histogram of shape s.
func (s *Shape) newHist() *Hist {
	h := s.Hist()
	return &h
}

// bucket returns the bucket index for v (which must be >= s.min).
func (s *Shape) bucket(v float64) int {
	return int(math.Log(v/s.min) / s.logG)
}

// DefaultGrowth gives ~2.5% relative quantile error, which is far below the
// run-to-run variance of any latency distribution we model.
const DefaultGrowth = 1.05

// The shapes of NewLatencyHist and NewSizeHist.
var (
	LatencyShape = NewShape(100, DefaultGrowth) // latencies in ns: first bucket at 100 ns
	SizeShape    = NewShape(1, DefaultGrowth)   // message sizes in bytes: first bucket at 1 B
)

// Hist is a log-bucketed histogram for positive values spanning many orders
// of magnitude (nanosecond latencies through multi-second tails, or byte
// sizes from 64 B through hundreds of MB). Bucket boundaries grow
// geometrically by Growth per bucket, giving a bounded relative error on
// quantile estimates of roughly (Growth-1)/2.
//
// Hist is the distribution value type stored in Monarch time-series points
// and is the working representation for every per-method analysis. The
// zero value is not usable; construct with NewHist, NewLatencyHist or a
// Shape's Hist.
//
// Bucket b covers [min*growth^b, min*growth^(b+1)). counts stores only the
// buckets from the first used one to the last: count i is bucket off+i.
// A per-method histogram holds a handful of values hundreds of buckets
// above min, so the leading zeros are never stored. Every index a Hist
// takes or returns (BucketIndex, RankBucket) is the absolute bucket b, and
// Export writes counts from bucket 0.
//
// Counts are as narrow as they can be: 16 bits each until an addition
// would overflow one, then the whole histogram widens to 32 bits, and
// then to 64. At 16 bits counts is the slice of counts; wider, it is the
// same memory allocated as []uint32 or []uint64, so it is aligned for
// them, and p32, p64 and view read it at that width.
type Hist struct {
	shape   *Shape
	counts  []uint16 // count i covers bucket off+i, 16<<wide bits each
	off     int32    // absolute bucket of count 0
	wide    uint8    // counts are 16<<wide bits wide: 0, 1 or 2
	under   uint64   // values below min
	total   uint64
	maxSeen float64
	minSeen float64
}

// NewHist returns a histogram whose first bucket starts at min and whose
// buckets grow by the given factor. min must be positive and growth > 1.
func NewHist(min, growth float64) *Hist { return NewShape(min, growth).newHist() }

// NewLatencyHist returns a histogram tuned for latencies expressed in
// nanoseconds: first bucket at 100 ns, default growth.
func NewLatencyHist() *Hist { return LatencyShape.newHist() }

// NewSizeHist returns a histogram tuned for message sizes in bytes: first
// bucket at 1 B, default growth.
func NewSizeHist() *Hist { return SizeShape.newHist() }

// counter is the type of a count at each width.
type counter interface{ uint16 | uint32 | uint64 }

// view returns s's memory read as elements of type T.
func view[T, S counter](s []S) []T {
	if len(s) == 0 {
		return nil
	}
	var t T
	var e S
	return unsafe.Slice((*T)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(e))/int(unsafe.Sizeof(t)))
}

// p32 and p64 point to count i at 32 and 64 bits; i must be below n.
func (h *Hist) p32(i int) *uint32 {
	return (*uint32)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(h.counts)), 4*i))
}

func (h *Hist) p64(i int) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(h.counts)), 8*i))
}

// n returns how many buckets counts holds.
func (h *Hist) n() int { return len(h.counts) >> h.wide }

// at returns count i.
func (h *Hist) at(i int) uint64 {
	switch h.wide {
	case 0:
		return uint64(h.counts[i])
	case 1:
		return uint64(*h.p32(i))
	}
	return *h.p64(i)
}

// Add records one observation. Non-positive and NaN values are recorded in
// the underflow bucket so totals still reconcile.
func (h *Hist) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Hist) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	sh := h.shape
	h.total += n
	if !(v >= sh.min) { // below the first bucket, non-positive or NaN
		h.under += n
		if v > 0 {
			h.maxSeen = max(h.maxSeen, v)
			h.minSeen = min(h.minSeen, v)
		}
		return
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	b := sh.bucket(v) - int(h.off)
	switch h.wide {
	case 0:
		if uint(b) < uint(len(h.counts)) && n <= uint64(math.MaxUint16-h.counts[b]) {
			h.counts[b] += uint16(n)
			return
		}
	case 1:
		if uint(b) < uint(len(h.counts)>>1) {
			if c := h.p32(b); n <= uint64(math.MaxUint32-*c) {
				*c += uint32(n)
				return
			}
		}
	}
	h.add(b, n)
}

// add is AddN's general case, kept out of it so the common case stays
// small: it makes room for bucket off+b, then adds n to its count.
func (h *Hist) add(b int, n uint64) {
	if uint(b) >= uint(h.n()) {
		abs := b + int(h.off)
		h.relayout(abs, abs+1, h.wide)
		b = abs - int(h.off)
	}
	h.addAt(b, n)
}

// addAt adds n to count i, widening the counts first when it would
// overflow. A 64-bit count wraps as a uint64 does.
func (h *Hist) addAt(i int, n uint64) {
	switch h.wide {
	case 0:
		if c := &h.counts[i]; n <= uint64(math.MaxUint16-*c) {
			*c += uint16(n)
			return
		}
	case 1:
		if c := h.p32(i); n <= uint64(math.MaxUint32-*c) {
			*c += uint32(n)
			return
		}
	default:
		*h.p64(i) += n
		return
	}
	h.relayout(int(h.off), int(h.off)+h.n(), h.wide+1)
	h.addAt(i, n)
}

// relayout copies the counts into a new array of wide's width, no
// narrower than they are, that covers absolute buckets [lo, hi) as well
// as those it holds. An empty histogram starts at lo.
func (h *Hist) relayout(lo, hi int, wide uint8) {
	if h.n() == 0 {
		h.off = int32(lo)
	}
	lo, hi = min(lo, int(h.off)), max(hi, int(h.off)+h.n())
	switch wide {
	case 0:
		h.counts = laidOut[uint16](h, lo, hi)
	case 1:
		h.counts = view[uint16](laidOut[uint32](h, lo, hi))
	default:
		h.counts = view[uint16](laidOut[uint64](h, lo, hi))
	}
	h.off, h.wide = int32(lo), wide
}

// laidOut returns h's counts as a new []T that covers absolute buckets
// [lo, hi).
func laidOut[T counter](h *Hist, lo, hi int) []T {
	s := make([]T, hi-lo)
	d := int(h.off) - lo
	for i := range h.n() {
		s[d+i] = T(h.at(i))
	}
	return s
}

// Merge adds all observations recorded in other into h. The histograms must
// have identical shape (min and growth).
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.total == 0 {
		return
	}
	if h.shape != other.shape && *h.shape != *other.shape {
		panic("stats: merging histograms with different shapes")
	}
	if n := other.n(); n > 0 {
		lo := int(other.off)
		if lo < int(h.off) || lo+n > int(h.off)+h.n() || h.wide < other.wide {
			h.relayout(lo, lo+n, max(h.wide, other.wide))
		}
		d := lo - int(h.off)
		for i := range n {
			h.addAt(d+i, other.at(i))
		}
	}
	h.under += other.under
	h.total += other.total
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
	if other.minSeen < h.minSeen {
		h.minSeen = other.minSeen
	}
}

// Count returns the total number of observations.
func (h *Hist) Count() uint64 { return h.total }

// Max returns the largest observation seen (exact, not bucketed).
func (h *Hist) Max() float64 { return h.maxSeen }

// rank returns the 1-based rank of the q-quantile (q clamped to [0, 1])
// among the histogram's observations.
func (h *Hist) rank(q float64) uint64 {
	return max(uint64(math.Ceil(min(max(q, 0), 1)*float64(h.total))), 1)
}

// find returns the index of the first non-empty bucket at which the
// running count, from the underflow bucket up, reaches rank, with that
// bucket's count and the running count below it; ok is false when no
// bucket does.
func (h *Hist) find(rank uint64) (i int, c, below uint64, ok bool) {
	switch h.wide {
	case 0:
		return find(h.counts, h.under, rank)
	case 1:
		return find(view[uint32](h.counts), h.under, rank)
	}
	return find(view[uint64](h.counts), h.under, rank)
}

func find[T counter](counts []T, seen, rank uint64) (int, uint64, uint64, bool) {
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			return i, uint64(c), seen, true
		}
		seen += uint64(c)
	}
	return 0, 0, seen, false
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) using
// within-bucket geometric interpolation. Underflow observations are treated
// as h.min. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := h.rank(q)
	if rank <= h.under {
		return math.Min(h.shape.min, h.minSeen)
	}
	i, c, seen, ok := h.find(rank)
	if !ok {
		return h.maxSeen
	}
	lo := h.shape.min * math.Pow(h.shape.growth, float64(int(h.off)+i))
	hi := lo * h.shape.growth
	// Interpolate geometrically within the bucket.
	frac := float64(rank-seen) / float64(c)
	est := lo * math.Pow(hi/lo, frac)
	// Clamp to the exact observed extrema for tighter tails.
	if est > h.maxSeen {
		est = h.maxSeen
	}
	if est < h.minSeen {
		est = h.minSeen
	}
	return est
}

// Percentile is Quantile with p expressed in percent (P50 => 50).
func (h *Hist) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// BucketIndex returns the index of the bucket that counts v, or -1 when v
// lands in the underflow bucket (non-positive, NaN, or below the
// histogram floor). It lets accumulators maintain per-bucket side state
// (e.g. conditional sums) in parallel with the histogram's own counts.
func (h *Hist) BucketIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) || v < h.shape.min {
		return -1
	}
	return h.shape.bucket(v)
}

// RankBucket returns the index of the bucket holding the q-quantile's
// rank — the same rank Quantile walks to — or -1 when that rank falls in
// the underflow bucket or the histogram is empty. Combined with
// BucketIndex it supports tail-conditional aggregation ("sum of X over
// observations at or above P95") without retaining raw values.
func (h *Hist) RankBucket(q float64) int {
	if h.total == 0 {
		return -1
	}
	rank := h.rank(q)
	if rank <= h.under {
		return -1
	}
	if i, _, _, ok := h.find(rank); ok {
		return int(h.off) + i
	}
	return int(h.off) + h.n() - 1
}

// CountAbove returns how many observations fall in buckets whose lower
// bound is >= v (approximate to bucket resolution).
func (h *Hist) CountAbove(v float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if v <= h.shape.min {
		return h.total - h.under
	}
	var n uint64
	for i := max(h.shape.bucket(v)-int(h.off), 0); i < h.n(); i++ {
		n += h.at(i)
	}
	return n
}

// HistDump is the serializable form of a Hist: everything needed to
// reconstruct the histogram in another process, JSON-tagged so
// cross-process telemetry merges (the cluster harness's child → parent
// reports) can ship distributions over a pipe.
type HistDump struct {
	Min     float64  `json:"min"`
	Growth  float64  `json:"growth"`
	Counts  []uint64 `json:"counts,omitempty"`
	Under   uint64   `json:"under,omitempty"`
	Total   uint64   `json:"total"`
	MaxSeen float64  `json:"max_seen"`
	MinSeen float64  `json:"min_seen"` // +Inf is encoded as 0 with Total==Under
}

// Export returns a serializable copy of the histogram's full state. Counts
// starts at bucket 0, leading zeros included.
func (h *Hist) Export() HistDump {
	minSeen := h.minSeen
	if math.IsInf(minSeen, 1) {
		minSeen = 0 // JSON cannot carry +Inf; Import restores it
	}
	var counts []uint64
	if n := h.n(); n > 0 {
		counts = laidOut[uint64](h, 0, int(h.off)+n)
	}
	return HistDump{
		Min:     h.shape.min,
		Growth:  h.shape.growth,
		Counts:  counts,
		Under:   h.under,
		Total:   h.total,
		MaxSeen: h.maxSeen,
		MinSeen: minSeen,
	}
}

// Import reconstructs a histogram from an exported dump. The zero dump
// yields an empty latency-shaped histogram.
func Import(d HistDump) *Hist {
	if d.Min <= 0 || d.Growth <= 1 {
		return NewLatencyHist()
	}
	h := NewHist(d.Min, d.Growth)
	// Drop the leading zeros, keeping the last bucket so a re-export has
	// the dump's length.
	off := 0
	for off < len(d.Counts)-1 && d.Counts[off] == 0 {
		off++
	}
	if counts := d.Counts[off:]; len(counts) > 0 {
		h.relayout(off, off+len(counts), 0)
		for i, c := range counts {
			h.addAt(i, c)
		}
	}
	h.under = d.Under
	h.total = d.Total
	h.maxSeen = d.MaxSeen
	if d.MinSeen > 0 {
		h.minSeen = d.MinSeen
	}
	return h
}

// Clone returns a deep copy of h.
func (h *Hist) Clone() *Hist {
	c := *h
	if n := c.n(); n > 0 {
		c.relayout(int(c.off), int(c.off)+n, c.wide)
	}
	return &c
}

// Summary holds the standard percentile summary reported for each method
// in the paper's per-method figures.
type Summary struct {
	P1, P10, P25, P50 float64
	P75, P90, P95     float64
	P99, P999         float64
	Max               float64
}

// Summarize computes the standard percentile summary.
func (h *Hist) Summarize() Summary {
	return Summary{
		P1:   h.Percentile(1),
		P10:  h.Percentile(10),
		P25:  h.Percentile(25),
		P50:  h.Percentile(50),
		P75:  h.Percentile(75),
		P90:  h.Percentile(90),
		P95:  h.Percentile(95),
		P99:  h.Percentile(99),
		P999: h.Percentile(99.9),
		Max:  h.Max(),
	}
}

// Sample holds raw observations and computes exact quantiles. It is used
// where the paper needs exact per-trace statistics (what-if analysis,
// small per-service breakdowns) rather than bucketed aggregates.
type Sample struct {
	vals   []float64
	sorted bool
}

// NewSample returns an empty sample set with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{vals: make([]float64, 0, capacity)}
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.vals) }

// Values returns the underlying observations in insertion order when the
// sample has never been sorted, or in ascending order afterwards. Callers
// must not modify the returned slice.
func (s *Sample) Values() []float64 { return s.vals }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Quantile returns the exact q-quantile using linear interpolation between
// order statistics. Returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(len(s.vals)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.vals) {
		return s.vals[len(s.vals)-1]
	}
	return s.vals[i]*(1-frac) + s.vals[i+1]*frac
}
