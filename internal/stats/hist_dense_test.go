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
	h.maxSeen = max(h.maxSeen, o.maxSeen)
	h.minSeen = min(h.minSeen, o.minSeen)
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

func (h *denseHist) Export() HistDump {
	minSeen := h.minSeen
	if math.IsInf(minSeen, 1) {
		minSeen = 0
	}
	return HistDump{
		Min: h.min, Growth: h.growth, Counts: append([]uint64(nil), h.counts...),
		Under: h.under, Total: h.total,
		MaxSeen: h.maxSeen, MinSeen: minSeen,
	}
}

func denseImport(d HistDump) *denseHist {
	h := newDense(d.Min, d.Growth)
	h.counts = append([]uint64(nil), d.Counts...)
	h.under, h.total, h.maxSeen = d.Under, d.Total, d.MaxSeen
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
	if h.Count() != d.total || h.Max() != d.maxSeen || h.minSeen != d.minSeen {
		t.Fatalf("totals: count %d max %v min %v; dense %d %v %v",
			h.Count(), h.Max(), h.minSeen, d.total, d.maxSeen, d.minSeen)
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
			continue // CountAbove takes a value, not NaN
		}
		if got, want := h.CountAbove(v), d.CountAbove(v); got != want {
			t.Fatalf("CountAbove(%v) = %v, dense %v", v, got, want)
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

// fuzzN maps a byte to AddN's n: 0 through 3 below 0xc0, and above it a
// count that takes a bucket to or past 2^16 or 2^32 in one or two adds,
// so the histogram widens its counts.
func fuzzN(y byte) uint64 {
	if y < 0xc0 {
		return uint64(y % 4)
	}
	return [8]uint64{1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 33, 1 << 48}[y&7]
}

// FuzzHistMatchesDense drives two histograms and their dense references
// through the same operations, three bytes each: add to either (value
// from two bytes), AddN with n from fuzzN, merge either way, start one
// over empty, clone, and an Export/Import round trip. Large n widens one
// histogram's counts to 32 or 64 bits, so merges, clones and round trips
// meet every pair of widths. After every operation both histograms must
// answer every query as their reference does.
func FuzzHistMatchesDense(f *testing.F) {
	up := []byte{0, 0x60, 10, 0, 0x70, 0, 0, 0x7f, 0xff}          // rising values
	down := []byte{0, 0x7f, 0xff, 0, 0x70, 0, 0, 0x61, 0}         // each below the first bucket so far
	odd := []byte{0, 0x00, 0, 0, 0x20, 7, 0, 0x40, 0, 0, 0x61, 3} // zero, negative, NaN, below min
	f.Add(up)
	f.Add(down)
	f.Add(odd)
	// Disjoint ranges merged both ways, then one started over.
	f.Add([]byte{0, 0x65, 0, 1, 0x7e, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 0, 0x70, 0x10})
	// Overlapping ranges, AddN with n of 0 and 3, a clone, and a round trip.
	f.Add([]byte{0, 0x68, 0, 1, 0x6a, 0, 2, 0x66, 3, 2, 0x66, 0, 4, 0, 0, 6, 0, 0, 7, 1, 0, 0, 0x64, 0})
	// One bucket to 2^16 - 1 and then past it, merged into an empty
	// 16-bit histogram, and a round trip of the 32-bit one.
	f.Add([]byte{2, 0x68, 0xc0, 0, 0x68, 0xc0, 4, 0, 0, 7, 0, 0})
	// Past 2^32 in one histogram and past 2^16 in the other, merged both
	// ways across widths, then a round trip and a clone of the 64-bit one.
	f.Add([]byte{2, 0x68, 0xc3, 0, 0x68, 0xc3, 0x0a, 0x66, 0xc1, 3, 0, 0, 4, 0, 0, 7, 0, 0, 0x0e, 0, 0})
	// A new bucket below and one above the stored range, each taking a
	// count past 2^32 as it is laid out.
	f.Add([]byte{0, 0x70, 0, 2, 0x62, 0xc6, 2, 0x7c, 0xc7, 7, 0, 0})
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
				hs[i].AddN(v, fuzzN(y))
				ds[i].AddN(v, fuzzN(y))
			case 3:
				hs[0].Merge(hs[1])
				ds[0].Merge(ds[1])
			case 4:
				hs[1].Merge(hs[0])
				ds[1].Merge(ds[0])
			case 5:
				hs[i] = NewLatencyHist()
				ds[i] = newDense(100, DefaultGrowth)
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

// Counts widen from 16 to 32 to 64 bits exactly when one would overflow,
// and a dump with counts of every width imports at the width its largest
// count needs and exports unchanged.
func TestHistWidensOnOverflow(t *testing.T) {
	h := NewLatencyHist()
	steps := []struct {
		v    float64
		n    uint64
		wide uint8
	}{
		{1e3, math.MaxUint16, 0},
		{2e6, 1, 0},
		{1e3, 1, 1},
		{5e2, math.MaxUint32 - 1, 1},
		{5e2, 2, 2},
	}
	d := newDense(100, DefaultGrowth)
	for _, s := range steps {
		h.AddN(s.v, s.n)
		d.AddN(s.v, s.n)
		if h.wide != s.wide {
			t.Fatalf("after AddN(%v, %d): width %d, want %d", s.v, s.n, 16<<h.wide, 16<<s.wide)
		}
		sameAsDense(t, h, d, []float64{1e3, 5e2, 2e6})
	}
	for _, tc := range []struct {
		counts []uint64
		wide   uint8
	}{
		{[]uint64{0, 0, 3, 0, math.MaxUint16}, 0},
		{[]uint64{0, 1 << 16, 0, 0}, 1},
		{[]uint64{7, math.MaxUint32, 1}, 1},
		{[]uint64{0, 0, 1 << 32, 5, 1 << 40}, 2},
	} {
		var total uint64
		for _, c := range tc.counts {
			total += c
		}
		dump := HistDump{Min: 100, Growth: DefaultGrowth, Counts: tc.counts, Total: total, MaxSeen: 1e6, MinSeen: 100}
		h := Import(dump)
		if h.wide != tc.wide {
			t.Fatalf("Import(%v): width %d, want %d", tc.counts, 16<<h.wide, 16<<tc.wide)
		}
		sameAsDense(t, h, denseImport(dump), []float64{100, 110, 1e3})
		if got := h.Export(); !reflect.DeepEqual(got, dump) {
			t.Fatalf("Import(%v).Export() = %+v", tc.counts, got)
		}
	}
}
