package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// pointMass is a Dist that always returns its value, a fixture for
// mixture tests.
type pointMass float64

func (p pointMass) Sample(*RNG) float64      { return float64(p) }
func (p pointMass) Quantile(float64) float64 { return float64(p) }
func (p pointMass) Mean() float64            { return float64(p) }

// sampleQuantile estimates a quantile by drawing n samples.
func sampleQuantile(d Dist, rng *RNG, n int, q float64) float64 {
	s := NewSample(n)
	for i := 0; i < n; i++ {
		s.Add(d.Sample(rng))
	}
	return s.Quantile(q)
}

func TestLogNormalFromMedianP99(t *testing.T) {
	ln := LogNormalFromMedianP99(1e6, 100e6) // 1ms median, 100ms P99
	if got := ln.Quantile(0.5); math.Abs(got-1e6)/1e6 > 1e-6 {
		t.Errorf("analytic median = %v", got)
	}
	if got := ln.Quantile(0.99); math.Abs(got-100e6)/100e6 > 1e-6 {
		t.Errorf("analytic P99 = %v", got)
	}
	rng := NewRNG(1)
	med := sampleQuantile(ln, rng, 50000, 0.5)
	if math.Abs(med-1e6)/1e6 > 0.05 {
		t.Errorf("sampled median = %v, want ~1e6", med)
	}
}

func TestLogNormalBadAnchorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { LogNormalFromMedianP99(-1, 5) },
		func() { LogNormalFromMedianP99(10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad anchors")
				}
			}()
			fn()
		}()
	}
}

func TestParetoQuantileInversion(t *testing.T) {
	p := NewPareto(64, 1.3, 1<<28)
	rng := NewRNG(2)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		analytic := p.Quantile(q)
		sampled := sampleQuantile(p, rng, 80000, q)
		if math.Abs(sampled-analytic)/analytic > 0.08 {
			t.Errorf("q=%v sampled %v vs analytic %v", q, sampled, analytic)
		}
	}
	// Bounds respected.
	for i := 0; i < 1000; i++ {
		v := p.Sample(rng)
		if v < p.min || v > p.max {
			t.Fatalf("sample %v outside [%v,%v]", v, p.min, p.max)
		}
	}
}

func TestParetoUnboundedMean(t *testing.T) {
	p := NewPareto(1, 0.9, 0)
	if !math.IsInf(p.Mean(), 1) {
		t.Errorf("alpha<1 unbounded mean should be +Inf, got %v", p.Mean())
	}
	p2 := NewPareto(2, 3, 0)
	if got, want := p2.Mean(), 3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestExponential(t *testing.T) {
	rng := NewRNG(3)
	e := Exponential{MeanVal: 50}
	m := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		m += e.Sample(rng)
	}
	m /= float64(n)
	if math.Abs(m-50)/50 > 0.05 {
		t.Errorf("exp mean = %v, want ~50", m)
	}
	if got := e.Quantile(0.5); math.Abs(got-50*math.Ln2)/got > 1e-9 {
		t.Errorf("exp median = %v", got)
	}
}

func TestShifted(t *testing.T) {
	base := Exponential{MeanVal: 10}
	sh := Shifted{Base: base, Offset: 100}
	if got := sh.Mean(); math.Abs(got-110) > 1e-9 {
		t.Errorf("shifted mean = %v", got)
	}
	if got := sh.Quantile(0.5); got <= 100 {
		t.Errorf("shifted quantile %v <= offset", got)
	}
}

func TestMixtureSamplingWeights(t *testing.T) {
	rng := NewRNG(4)
	m := NewMixture(
		[]Dist{pointMass(1), pointMass(1000)},
		[]float64{0.9, 0.1},
	)
	small := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.Sample(rng) == 1 {
			small++
		}
	}
	frac := float64(small) / float64(n)
	if math.Abs(frac-0.9) > 0.02 {
		t.Errorf("component 0 fraction = %v, want ~0.9", frac)
	}
}

func TestMixtureQuantileNumeric(t *testing.T) {
	m := NewMixture(
		[]Dist{LogNormal{Mu: 0, Sigma: 0.5}, LogNormal{Mu: 5, Sigma: 0.5}},
		[]float64{0.5, 0.5},
	)
	// The 25th percentile must come from the low mode, the 75th from the
	// high mode.
	q25, q75 := m.Quantile(0.25), m.Quantile(0.75)
	if q25 > 3 {
		t.Errorf("Q25 = %v, want low mode (~1)", q25)
	}
	if q75 < 50 {
		t.Errorf("Q75 = %v, want high mode (~150)", q75)
	}
	// CDF(Quantile(q)) ~ q round trip.
	rng := NewRNG(5)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		v := m.Quantile(q)
		// Empirical check.
		below := 0
		n := 30000
		for i := 0; i < n; i++ {
			if m.Sample(rng) <= v {
				below++
			}
		}
		got := float64(below) / float64(n)
		if math.Abs(got-q) > 0.03 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestMixtureMean(t *testing.T) {
	m := NewMixture([]Dist{pointMass(10), pointMass(20)}, []float64{1, 3})
	if got := m.Mean(); math.Abs(got-17.5) > 1e-9 {
		t.Errorf("mixture mean = %v, want 17.5", got)
	}
}

func TestMixtureValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]Dist{pointMass(1)}, []float64{-1}) },
		func() { NewMixture([]Dist{pointMass(1)}, []float64{0}) },
		func() { NewMixture([]Dist{pointMass(1)}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid mixture")
				}
			}()
			fn()
		}()
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		z := NormQuantile(q)
		back := normCDF(z)
		if math.Abs(back-q) > 1e-8 {
			t.Errorf("normCDF(NormQuantile(%v)) = %v", q, back)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("extreme quantiles should be infinite")
	}
	if NormQuantile(0.5) != 0 && math.Abs(NormQuantile(0.5)) > 1e-9 {
		t.Errorf("NormQuantile(0.5) = %v", NormQuantile(0.5))
	}
}

func TestZipfShares(t *testing.T) {
	z := NewZipf(1000, 1.2, 2)
	// Shares must sum to 1 and decrease with rank.
	var total float64
	prev := math.Inf(1)
	for i := 0; i < z.N; i++ {
		s := z.Share(i)
		if s > prev+1e-12 {
			t.Fatalf("share not monotone at rank %d: %v > %v", i, s, prev)
		}
		prev = s
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if z.CumShare(0) != 0 || z.CumShare(z.N) != 1 {
		t.Error("CumShare boundary conditions wrong")
	}
	// Sampling distribution matches shares.
	rng := NewRNG(6)
	count0 := 0
	n := 50000
	for i := 0; i < n; i++ {
		if z.Sample(rng) == 0 {
			count0++
		}
	}
	want := z.Share(0)
	got := float64(count0) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("rank-0 frequency %v, want %v", got, want)
	}
}

func TestDistQuantileMonotoneProperty(t *testing.T) {
	dists := []Dist{
		LogNormal{Mu: 10, Sigma: 2},
		NewPareto(64, 1.5, 1e9),
		Exponential{MeanVal: 123},
		Shifted{Base: Exponential{MeanVal: 10}, Offset: 3},
	}
	f := func(a, b float64) bool {
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		if qa == 0 || qb >= 1 {
			return true
		}
		for _, d := range dists {
			if d.Quantile(qa) > d.Quantile(qb)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
