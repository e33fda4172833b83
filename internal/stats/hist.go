package stats

import (
	"fmt"
	"math"
	"sort"
)

// Hist is a log-bucketed histogram for positive values spanning many orders
// of magnitude (nanosecond latencies through multi-second tails, or byte
// sizes from 64 B through hundreds of MB). Bucket boundaries grow
// geometrically by Growth per bucket, giving a bounded relative error on
// quantile estimates of roughly (Growth-1)/2.
//
// Hist is the distribution value type stored in Monarch time-series points
// and is the working representation for every per-method analysis. The
// zero value is not usable; construct with NewHist or NewLatencyHist.
//
// Bucket b covers [min*growth^b, min*growth^(b+1)). counts stores only the
// buckets from the first used one to the last: counts[i] is bucket off+i.
// A per-method histogram holds a handful of values hundreds of buckets
// above min, so the leading zeros are never stored. Every index a Hist
// takes or returns (BucketIndex, RankBucket) is the absolute bucket b, and
// Export writes counts from bucket 0.
type Hist struct {
	min    float64 // lower bound of bucket 0
	growth float64 // geometric bucket growth factor
	logG   float64 // cached log(growth)

	off     int      // absolute bucket of counts[0]
	counts  []uint64 // counts[i] covers bucket off+i
	under   uint64   // values below min
	total   uint64
	sum     float64
	sumSq   float64
	maxSeen float64
	minSeen float64
}

// DefaultGrowth gives ~2.5% relative quantile error, which is far below the
// run-to-run variance of any latency distribution we model.
const DefaultGrowth = 1.05

// NewHist returns a histogram whose first bucket starts at min and whose
// buckets grow by the given factor. min must be positive and growth > 1.
func NewHist(min, growth float64) *Hist {
	if min <= 0 || growth <= 1 {
		panic(fmt.Sprintf("stats: invalid histogram shape min=%v growth=%v", min, growth))
	}
	return &Hist{min: min, growth: growth, logG: math.Log(growth), minSeen: math.Inf(1)}
}

// NewLatencyHist returns a histogram tuned for latencies expressed in
// nanoseconds: first bucket at 100 ns, default growth.
func NewLatencyHist() *Hist { return NewHist(100, DefaultGrowth) }

// NewSizeHist returns a histogram tuned for message sizes in bytes: first
// bucket at 1 B, default growth.
func NewSizeHist() *Hist { return NewHist(1, DefaultGrowth) }

// bucket returns the bucket index for v (which must be >= h.min).
func (h *Hist) bucket(v float64) int {
	return int(math.Log(v/h.min) / h.logG)
}

// Add records one observation. Non-positive and NaN values are recorded in
// the underflow bucket so totals still reconcile.
func (h *Hist) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Hist) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	if !(v > 0) || math.IsNaN(v) { // catches v <= 0 and NaN
		h.under += n
		return
	}
	h.sum += v * float64(n)
	h.sumSq += v * v * float64(n)
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v < h.min {
		h.under += n
		return
	}
	b := h.bucket(v) - h.off
	if uint(b) >= uint(len(h.counts)) {
		b = h.widen(b + h.off)
	}
	h.counts[b] += n
}

// widen extends counts to cover absolute bucket b and returns b's index
// in counts. It is kept out of AddN so the in-range case stays small.
func (h *Hist) widen(b int) int {
	h.counts, h.off = Widen(h.counts, h.off, b, b+1)
	return b - h.off
}

// Widen returns s, which holds the elements of absolute indices
// [off, off+len(s)), laid out to hold [lo, hi) as well, and the absolute
// index of its first element. An empty s starts at lo. Added elements are
// zero; s's array is reused when it only grows upward within capacity.
func Widen[T any](s []T, off, lo, hi int) ([]T, int) {
	if len(s) == 0 {
		off = lo
	}
	lo, hi = min(lo, off), max(hi, off+len(s))
	if lo == off && hi-lo <= cap(s) {
		n := len(s)
		s = s[:hi-lo]
		clear(s[n:])
		return s, lo
	}
	grown := make([]T, hi-lo)
	copy(grown[off-lo:], s)
	return grown, lo
}

// Merge adds all observations recorded in other into h. The histograms must
// have identical shape (min and growth).
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.total == 0 {
		return
	}
	if h.min != other.min || h.growth != other.growth {
		panic("stats: merging histograms with different shapes")
	}
	if len(other.counts) > 0 {
		h.counts, h.off = Widen(h.counts, h.off, other.off, other.off+len(other.counts))
		d := other.off - h.off
		for i, c := range other.counts {
			h.counts[d+i] += c
		}
	}
	h.under += other.under
	h.total += other.total
	h.sum += other.sum
	h.sumSq += other.sumSq
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
	if other.minSeen < h.minSeen {
		h.minSeen = other.minSeen
	}
}

// Count returns the total number of observations.
func (h *Hist) Count() uint64 { return h.total }

// Sum returns the sum of all positive observations.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of positive observations, or 0 when
// there are none.
func (h *Hist) Mean() float64 {
	n := h.total - h.under
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

// Stddev returns the (population) standard deviation of positive
// observations.
func (h *Hist) Stddev() float64 {
	n := float64(h.total - h.under)
	if n < 1 {
		return 0
	}
	m := h.sum / n
	v := h.sumSq/n - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Max returns the largest observation seen (exact, not bucketed).
func (h *Hist) Max() float64 { return h.maxSeen }

// Min returns the smallest positive observation seen, or +Inf when empty.
func (h *Hist) Min() float64 { return h.minSeen }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) using
// within-bucket geometric interpolation. Underflow observations are treated
// as h.min. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank in [1, total].
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.under {
		return math.Min(h.min, h.minSeen)
	}
	seen := h.under
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := h.min * math.Pow(h.growth, float64(h.off+i))
			hi := lo * h.growth
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
		seen += c
	}
	return h.maxSeen
}

// Percentile is Quantile with p expressed in percent (P50 => 50).
func (h *Hist) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// BucketIndex returns the index of the bucket that counts v, or -1 when v
// lands in the underflow bucket (non-positive, NaN, or below the
// histogram floor). It lets accumulators maintain per-bucket side state
// (e.g. conditional sums) in parallel with the histogram's own counts.
func (h *Hist) BucketIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) || v < h.min {
		return -1
	}
	return h.bucket(v)
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
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.under {
		return -1
	}
	seen := h.under
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			return h.off + i
		}
		seen += c
	}
	return h.off + len(h.counts) - 1
}

// CountAbove returns how many observations fall in buckets whose lower
// bound is >= v (approximate to bucket resolution).
func (h *Hist) CountAbove(v float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if v <= h.min {
		return h.total - h.under
	}
	var n uint64
	for i := max(h.bucket(v)-h.off, 0); i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return n
}

// Fraction returns the fraction of observations at or below v.
func (h *Hist) Fraction(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	above := h.CountAbove(v)
	return 1 - float64(above)/float64(h.total)
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
	Sum     float64  `json:"sum"`
	SumSq   float64  `json:"sum_sq"`
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
	if len(h.counts) > 0 {
		counts = make([]uint64, h.off+len(h.counts))
		copy(counts[h.off:], h.counts)
	}
	return HistDump{
		Min:     h.min,
		Growth:  h.growth,
		Counts:  counts,
		Under:   h.under,
		Total:   h.total,
		Sum:     h.sum,
		SumSq:   h.sumSq,
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
	for h.off < len(d.Counts)-1 && d.Counts[h.off] == 0 {
		h.off++
	}
	h.counts = append([]uint64(nil), d.Counts[h.off:]...)
	h.under = d.Under
	h.total = d.Total
	h.sum = d.Sum
	h.sumSq = d.SumSq
	h.maxSeen = d.MaxSeen
	if d.MinSeen > 0 {
		h.minSeen = d.MinSeen
	}
	return h
}

// Clone returns a deep copy of h.
func (h *Hist) Clone() *Hist {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Reset removes all observations, keeping the bucket shape.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.counts = h.counts[:0]
	h.under, h.total = 0, 0
	h.sum, h.sumSq = 0, 0
	h.maxSeen, h.minSeen = 0, math.Inf(1)
}

// Summary holds the standard percentile summary reported for each method
// in the paper's per-method figures.
type Summary struct {
	Count             uint64
	Mean              float64
	P1, P10, P25, P50 float64
	P75, P90, P95     float64
	P99, P999         float64
	Max               float64
}

// Summarize computes the standard percentile summary.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P1:    h.Percentile(1),
		P10:   h.Percentile(10),
		P25:   h.Percentile(25),
		P50:   h.Percentile(50),
		P75:   h.Percentile(75),
		P90:   h.Percentile(90),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
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

// Percentile is Quantile with p in percent.
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum
}
