package stats

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// A histogram's header is what a per-method figure pays for each method
// that has a value at all, so its size is held: the shape is a shared
// pointer and the width tag sits beside the 32-bit offset.
func TestHistHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Hist{}); got > 72 {
		t.Fatalf("unsafe.Sizeof(Hist{}) = %d B, want at most 72", got)
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewLatencyHist()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	if m := h.Max(); m != 0 {
		t.Fatalf("empty max = %v", m)
	}
}

func TestHistSingleValue(t *testing.T) {
	h := NewLatencyHist()
	h.Add(1e6) // 1ms in ns
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if math.Abs(got-1e6)/1e6 > 0.06 {
			t.Errorf("Quantile(%v) = %v, want ~1e6", q, got)
		}
	}
	if h.Max() != 1e6 {
		t.Errorf("Max = %v", h.Max())
	}
	if h.minSeen != 1e6 {
		t.Errorf("min seen = %v", h.minSeen)
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	// Against a known uniform grid the quantile estimate must stay within
	// bucket resolution.
	h := NewHist(1, DefaultGrowth)
	n := 10000
	for i := 1; i <= n; i++ {
		h.Add(float64(i))
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		want := q * float64(n)
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, want)
		}
	}
}

func TestHistUnderflow(t *testing.T) {
	h := NewHist(100, DefaultGrowth)
	h.Add(5)  // below min
	h.Add(-3) // non-positive: counted but valueless
	h.Add(math.NaN())
	h.Add(200)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	// Median should fall in the underflow region -> reported as <= min.
	if q := h.Quantile(0.25); q > 100 {
		t.Errorf("low quantile = %v, want <= min", q)
	}
	if q := h.Quantile(1); math.Abs(q-200) > 15 {
		t.Errorf("max quantile = %v, want ~200", q)
	}
}

func TestHistMergeMatchesCombined(t *testing.T) {
	rng := NewRNG(42)
	a, b, both := NewLatencyHist(), NewLatencyHist(), NewLatencyHist()
	for i := 0; i < 5000; i++ {
		v := math.Exp(10 + 3*rng.NormFloat64())
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		both.Add(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), both.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		qa, qb := a.Quantile(q), both.Quantile(q)
		if math.Abs(qa-qb)/qb > 1e-9 {
			t.Errorf("Quantile(%v): merged %v vs combined %v", q, qa, qb)
		}
	}
	if a.Max() != both.Max() || a.minSeen != both.minSeen {
		t.Errorf("merged extrema %v..%v vs %v..%v", a.minSeen, a.Max(), both.minSeen, both.Max())
	}
}

func TestHistMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := NewHist(1, 1.05)
	b := NewHist(2, 1.05)
	b.Add(10)
	a.Merge(b)
}

func TestHistQuantilesMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		h := NewLatencyHist()
		n := 100 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			h.Add(math.Exp(8 + 4*rng.NormFloat64()))
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistQuantileWithinObservedRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		h := NewLatencyHist()
		lo, hi := math.Inf(1), 0.0
		for i := 0; i < 500; i++ {
			v := 200 + 1e9*rng.Float64()
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			h.Add(v)
		}
		for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
			v := h.Quantile(q)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistCountAbove(t *testing.T) {
	h := NewHist(1, DefaultGrowth)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	above := h.CountAbove(50)
	if above < 45 || above > 55 {
		t.Errorf("CountAbove(50) = %d, want ~50", above)
	}
	if all := h.CountAbove(1); all != 100 {
		t.Errorf("CountAbove(1) = %d, want 100", all)
	}
}

func TestHistCloneIndependent(t *testing.T) {
	h := NewLatencyHist()
	h.Add(1000)
	c := h.Clone()
	c.Add(2000)
	if h.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: h=%d c=%d", h.Count(), c.Count())
	}
}

func TestHistSummarizeOrdering(t *testing.T) {
	rng := NewRNG(7)
	h := NewLatencyHist()
	for i := 0; i < 10000; i++ {
		h.Add(LogNormal{Mu: 13, Sigma: 1.5}.Sample(rng))
	}
	s := h.Summarize()
	ordered := []float64{s.P1, s.P10, s.P25, s.P50, s.P75, s.P90, s.P95, s.P99, s.P999}
	for i := 1; i < len(ordered); i++ {
		if ordered[i] < ordered[i-1] {
			t.Fatalf("summary percentiles not monotonic: %+v", s)
		}
	}
	if s.Max < s.P999 {
		t.Errorf("max %v < P999 %v", s.Max, s.P999)
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 100; i >= 1; i-- { // reverse order to exercise sorting
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("Q1 = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Q0.5 = %v, want 50.5", got)
	}
}

func TestSampleEmptyAndAfterSortAdd(t *testing.T) {
	s := NewSample(4)
	if s.Quantile(0.5) != 0 || s.Len() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	s.Add(3)
	s.Add(1)
	_ = s.Quantile(0.5) // forces sort
	s.Add(2)            // insertion after sort must re-sort lazily
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("median after re-add = %v, want 2", got)
	}
}
