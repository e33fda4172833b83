package stats

import (
	"math"
	"reflect"
	"testing"
)

// denseHist is the reference Hist is checked against: the same
// histogram with counts[i] holding bucket i from bucket 0 up, every
// leading zero stored. Each query is the one Hist answers, written for
// that layout.
type denseHist struct {
	min, growth, logG float64

	counts           []uint64
	under, total     uint64
	sum, sumSq       float64
	maxSeen, minSeen float64
}

func newDense(min, growth float64) *denseHist {
	return &denseHist{min: min, growth: growth, logG: math.Log(growth), minSeen: math.Inf(1)}
}

func (h *denseHist) bucket(v float64) int { return int(math.Log(v/h.min) / h.logG) }

func (h *denseHist) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	if !(v > 0) || math.IsNaN(v) {
		h.under += n
		return
	}
	h.sum += v * float64(n)
	h.sumSq += v * v * float64(n)
	h.maxSeen = max(h.maxSeen, v)
	h.minSeen = min(h.minSeen, v)
	if v < h.min {
		h.under += n
		return
	}
	b := h.bucket(v)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b] += n
}

func (h *denseHist) Merge(o *denseHist) {
	if o.total == 0 {
		return
	}
	for len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.under += o.under
	h.total += o.total
	h.sum += o.sum
	h.sumSq += o.sumSq
	h.maxSeen = max(h.maxSeen, o.maxSeen)
	h.minSeen = min(h.minSeen, o.minSeen)
}

func (h *denseHist) Reset() {
	*h = denseHist{min: h.min, growth: h.growth, logG: h.logG, minSeen: math.Inf(1)}
}

func (h *denseHist) Clone() *denseHist {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// rank is the 1-based rank Quantile and RankBucket walk to.
func (h *denseHist) rank(q float64) uint64 {
	q = min(max(q, 0), 1)
	return max(uint64(math.Ceil(q*float64(h.total))), 1)
}

func (h *denseHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := h.rank(q)
	if rank <= h.under {
		return math.Min(h.min, h.minSeen)
	}
	seen := h.under
	for i, c := range h.counts {
		if c > 0 && seen+c >= rank {
			lo := h.min * math.Pow(h.growth, float64(i))
			hi := lo * h.growth
			est := lo * math.Pow(hi/lo, float64(rank-seen)/float64(c))
			return max(min(est, h.maxSeen), h.minSeen)
		}
		seen += c
	}
	return h.maxSeen
}

func (h *denseHist) RankBucket(q float64) int {
	if h.total == 0 {
		return -1
	}
	rank := h.rank(q)
	if rank <= h.under {
		return -1
	}
	seen := h.under
	for i, c := range h.counts {
		if c > 0 && seen+c >= rank {
			return i
		}
		seen += c
	}
	return len(h.counts) - 1
}

func (h *denseHist) BucketIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) || v < h.min {
		return -1
	}
	return h.bucket(v)
}

func (h *denseHist) CountAbove(v float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if v <= h.min {
		return h.total - h.under
	}
	var n uint64
	for i := h.bucket(v); i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return n
}

func (h *denseHist) Fraction(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	return 1 - float64(h.CountAbove(v))/float64(h.total)
}

func (h *denseHist) Export() HistDump {
	minSeen := h.minSeen
	if math.IsInf(minSeen, 1) {
		minSeen = 0
	}
	return HistDump{
		Min: h.min, Growth: h.growth, Counts: append([]uint64(nil), h.counts...),
		Under: h.under, Total: h.total, Sum: h.sum, SumSq: h.sumSq,
		MaxSeen: h.maxSeen, MinSeen: minSeen,
	}
}

func denseImport(d HistDump) *denseHist {
	h := newDense(d.Min, d.Growth)
	h.counts = append([]uint64(nil), d.Counts...)
	h.under, h.total, h.sum, h.sumSq, h.maxSeen = d.Under, d.Total, d.Sum, d.SumSq, d.MaxSeen
	if d.MinSeen > 0 {
		h.minSeen = d.MinSeen
	}
	return h
}

var denseQGrid = []float64{-0.5, 0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 1.5}

// sameAsDense fails unless every query of h returns exactly, with ==,
// what the dense reference returns, at every q of the grid and at every
// probe value.
func sameAsDense(t *testing.T, h *Hist, d *denseHist, probes []float64) {
	t.Helper()
	if h.Count() != d.total || h.Sum() != d.sum || h.Max() != d.maxSeen || h.Min() != d.minSeen {
		t.Fatalf("totals: count %d sum %v max %v min %v; dense %d %v %v %v",
			h.Count(), h.Sum(), h.Max(), h.Min(), d.total, d.sum, d.maxSeen, d.minSeen)
	}
	for _, q := range denseQGrid {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, dense %v", q, got, want)
		}
		if got, want := h.RankBucket(q), d.RankBucket(q); got != want {
			t.Fatalf("RankBucket(%v) = %v, dense %v", q, got, want)
		}
	}
	for _, v := range probes {
		if got, want := h.BucketIndex(v), d.BucketIndex(v); got != want {
			t.Fatalf("BucketIndex(%v) = %v, dense %v", v, got, want)
		}
		if math.IsNaN(v) {
			continue // CountAbove and Fraction take a value, not NaN
		}
		if got, want := h.CountAbove(v), d.CountAbove(v); got != want {
			t.Fatalf("CountAbove(%v) = %v, dense %v", v, got, want)
		}
		if got, want := h.Fraction(v), d.Fraction(v); got != want {
			t.Fatalf("Fraction(%v) = %v, dense %v", v, got, want)
		}
	}
	if ge, we := h.Export(), d.Export(); !reflect.DeepEqual(ge, we) {
		t.Fatalf("Export = %+v, dense %+v", ge, we)
	}
}

// fuzzValue maps two bytes to a value for a latency-shaped histogram:
// zero, negative, NaN, or a value from 64 buckets below its floor (100 ns)
// to about 2000 buckets above it, most of them between bucket edges.
func fuzzValue(x, y byte) float64 {
	switch x >> 5 {
	case 0:
		return 0
	case 1:
		return -float64(y)
	case 2:
		return math.NaN()
	}
	e := float64(int(x&31)<<8|int(y))/4 - 64
	return 100 * math.Pow(DefaultGrowth, e)
}

// FuzzHistMatchesDense drives two histograms and their dense references
// through the same operations, three bytes each: add to either (value
// from two bytes), AddN with n in 0..3, merge either way, reset, clone,
// and an Export/Import round trip. After every operation both histograms
// must answer every query as their reference does.
func FuzzHistMatchesDense(f *testing.F) {
	up := []byte{0, 0x60, 10, 0, 0x70, 0, 0, 0x7f, 0xff}          // rising values
	down := []byte{0, 0x7f, 0xff, 0, 0x70, 0, 0, 0x61, 0}         // each below the first bucket so far
	odd := []byte{0, 0x00, 0, 0, 0x20, 7, 0, 0x40, 0, 0, 0x61, 3} // zero, negative, NaN, below min
	f.Add(up)
	f.Add(down)
	f.Add(odd)
	// Disjoint ranges merged both ways, then reuse after a reset.
	f.Add([]byte{0, 0x65, 0, 1, 0x7e, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 0, 0x70, 0x10})
	// Overlapping ranges, AddN with n of 0 and 3, a clone, and a round trip.
	f.Add([]byte{0, 0x68, 0, 1, 0x6a, 0, 2, 0x66, 3, 2, 0x66, 0, 4, 0, 0, 6, 0, 0, 7, 1, 0, 0, 0x64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		hs := [2]*Hist{NewLatencyHist(), NewLatencyHist()}
		ds := [2]*denseHist{newDense(100, DefaultGrowth), newDense(100, DefaultGrowth)}
		probes := []float64{0, -1, math.NaN(), 1, 50, 99.9, 100, 105, 1e3, 1e6, 1e9, 1e30}
		for ; len(data) >= 3; data = data[3:] {
			op, x, y := data[0], data[1], data[2]
			i := int(op>>3) & 1
			v := fuzzValue(x, y)
			switch op % 8 {
			case 0:
				hs[i].Add(v)
				ds[i].AddN(v, 1)
			case 1:
				hs[1-i].Add(v)
				ds[1-i].AddN(v, 1)
			case 2:
				hs[i].AddN(v, uint64(y%4))
				ds[i].AddN(v, uint64(y%4))
			case 3:
				hs[0].Merge(hs[1])
				ds[0].Merge(ds[1])
			case 4:
				hs[1].Merge(hs[0])
				ds[1].Merge(ds[0])
			case 5:
				hs[i].Reset()
				ds[i].Reset()
			case 6:
				hs[i] = hs[1-i].Clone()
				ds[i] = ds[1-i].Clone()
			case 7:
				hs[i] = Import(hs[i].Export())
				ds[i] = denseImport(ds[i].Export())
			}
			if len(probes) < 64 {
				probes = append(probes, v)
			}
			sameAsDense(t, hs[0], ds[0], probes)
			sameAsDense(t, hs[1], ds[1], probes)
		}
	})
}

// The dump format does not change with the layout: a histogram holding
// only high buckets exports every bucket from 0, and the dump imports
// back to the same histogram.
func TestHistDumpKeepsLeadingZeros(t *testing.T) {
	h := NewLatencyHist()
	h.Add(1e9)
	h.Add(2e9)
	d := h.Export()
	top := h.BucketIndex(2e9)
	if len(d.Counts) != top+1 {
		t.Fatalf("exported %d counts, want %d (bucket 0 through %d)", len(d.Counts), top+1, top)
	}
	for b, c := range d.Counts {
		want := uint64(0)
		if b == h.BucketIndex(1e9) || b == top {
			want = 1
		}
		if c != want {
			t.Fatalf("exported bucket %d = %d, want %d", b, c, want)
		}
	}
	if back := Import(d).Export(); !reflect.DeepEqual(back, d) {
		t.Fatalf("round trip = %+v, want %+v", back, d)
	}
	if d := NewLatencyHist().Export(); d.Counts != nil {
		t.Fatalf("empty histogram exported counts %v, want none", d.Counts)
	}
}
