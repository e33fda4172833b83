package stats

import "testing"

func BenchmarkHistAdd(b *testing.B) {
	h := NewLatencyHist()
	rng := NewRNG(1)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = LogNormal{Mu: 13, Sigma: 2}.Sample(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&4095])
	}
}

func BenchmarkHistQuantile(b *testing.B) {
	h := NewLatencyHist()
	rng := NewRNG(2)
	for i := 0; i < 100000; i++ {
		h.Add(LogNormal{Mu: 13, Sigma: 2}.Sample(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

func BenchmarkBottomKOffer(b *testing.B) {
	k := NewBottomK(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := Mix64(uint64(i))
		k.Offer(x, uint64(i), [3]float64{float64(i), float64(i * 2), float64(i * 3)})
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	rng := NewRNG(3)
	d := LogNormal{Mu: 13, Sigma: 1.5}
	for i := 0; i < b.N; i++ {
		if d.Sample(rng) <= 0 {
			b.Fatal("bad sample")
		}
	}
}

func BenchmarkMixtureSample(b *testing.B) {
	rng := NewRNG(4)
	m := NewMixture(
		[]Dist{LogNormal{Mu: 10, Sigma: 1}, LogNormal{Mu: 14, Sigma: 0.6}, NewPareto(1e6, 1.2, 1e10)},
		[]float64{0.6, 0.35, 0.05},
	)
	for i := 0; i < b.N; i++ {
		if m.Sample(rng) <= 0 {
			b.Fatal("bad sample")
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	rng := NewRNG(5)
	z := NewZipf(10000, 1.2, 2)
	for i := 0; i < b.N; i++ {
		if z.Sample(rng) < 0 {
			b.Fatal("bad rank")
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	rng := NewRNG(6)
	for b.Loop() {
		rng.NormFloat64()
	}
}

func BenchmarkParetoSample(b *testing.B) {
	rng := NewRNG(7)
	p := NewPareto(50e3, 1.5, 10e6)
	for b.Loop() {
		p.Sample(rng)
	}
}

// BenchmarkHistAddUniform adds values spread evenly over 1 µs to 1 s, as
// the repo benchmark's stats.hist_add_ns does; its top buckets pass 2^16
// counts within the first few million adds.
func BenchmarkHistAddUniform(b *testing.B) {
	h := NewLatencyHist()
	rng := NewRNG(1)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 1e3 + rng.Float64()*1e9
	}
	for i := 0; b.Loop(); i++ {
		h.Add(vals[i&4095])
	}
}
