package stats

import (
	"math"
	"testing"
)

func TestMomentsPerfectCorrelation(t *testing.T) {
	var m Moments
	for i := 0; i < 100; i++ {
		x := float64(i)
		m.Add(x, 3*x+5)
	}
	if r := m.Pearson(); math.Abs(r-1) > 1e-9 {
		t.Errorf("Pearson = %v, want 1", r)
	}
	if s := m.Cov() / m.VarX(); math.Abs(s-3) > 1e-9 {
		t.Errorf("Cov/VarX = %v, want the slope 3", s)
	}
}

func TestMomentsAntiCorrelation(t *testing.T) {
	var m Moments
	for i := 0; i < 50; i++ {
		m.Add(float64(i), -2*float64(i))
	}
	if r := m.Pearson(); math.Abs(r+1) > 1e-9 {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestMomentsConstantInput(t *testing.T) {
	var m Moments
	for i := 0; i < 10; i++ {
		m.Add(5, float64(i))
	}
	if r := m.Pearson(); r != 0 {
		t.Errorf("Pearson with constant x = %v, want 0", r)
	}
	if v := m.VarX(); v != 0 {
		t.Errorf("VarX with constant x = %v", v)
	}
}

func TestMomentsIndependence(t *testing.T) {
	rng := NewRNG(11)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Add(rng.Float64(), rng.Float64())
	}
	if r := m.Pearson(); math.Abs(r) > 0.02 {
		t.Errorf("independent Pearson = %v, want ~0", r)
	}
	if math.Abs(m.VarX()-1.0/12) > 0.005 {
		t.Errorf("variance %v deviates from 1/12", m.VarX())
	}
}

func TestPearsonSliceEdgeCases(t *testing.T) {
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Error("short slice should give 0")
	}
	if Pearson([]float64{1, 2}, []float64{3}) != 0 {
		t.Error("mismatched length should give 0")
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// Spearman is 1 for any monotone relationship, even wildly nonlinear.
	xs, ys := make([]float64, 100), make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = math.Exp(float64(i) / 10)
	}
	if r := SpearmanRank(xs, ys); math.Abs(r-1) > 1e-9 {
		t.Errorf("Spearman = %v, want 1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	if r := SpearmanRank(xs, ys); math.Abs(r-1) > 1e-9 {
		t.Errorf("Spearman with ties = %v, want 1", r)
	}
}

func TestSpearmanUncorrelatedHeavyTail(t *testing.T) {
	rng := NewRNG(12)
	p := NewPareto(1, 0.8, 0) // infinite-variance tail
	xs, ys := make([]float64, 5000), make([]float64, 5000)
	for i := range xs {
		xs[i] = p.Sample(rng)
		ys[i] = p.Sample(rng)
	}
	if r := SpearmanRank(xs, ys); math.Abs(r) > 0.05 {
		t.Errorf("Spearman of independent heavy tails = %v, want ~0", r)
	}
}

func TestBucketize(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	centers, means := Bucketize(xs, ys, 5)
	if len(centers) != 5 {
		t.Fatalf("got %d buckets, want 5", len(centers))
	}
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1] {
			t.Errorf("bucket means not increasing: %v", means)
		}
	}
}

func TestBucketizeEdgeCases(t *testing.T) {
	if c, _ := Bucketize(nil, nil, 5); c != nil {
		t.Error("nil input should return nil")
	}
	c, m := Bucketize([]float64{3, 3, 3}, []float64{1, 2, 3}, 4)
	if len(c) != 1 || c[0] != 3 || math.Abs(m[0]-2) > 1e-9 {
		t.Errorf("constant-x bucketize = %v %v", c, m)
	}
}
