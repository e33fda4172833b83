package stats

import (
	"math"
	"sort"
	"testing"
)

// The samplers' draw contract (DESIGN.md §14): a sampler consumes the same
// words of the stream, in the same order, and returns the same bits as the
// straightforward form below, of which it is a faster rewrite. Seeded
// reports and their pinned digests rest on this, so each test compares
// every value bit for bit and then the next word, which checks that both
// sides stand at the same position in the stream.

// exactDraws is the number of values compared per sampler.
const exactDraws = 1_000_000

// refUint64 is xoshiro256** written on the state array, one store per
// word.
func refUint64(s *[4]uint64) uint64 {
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// refNormFloat64 is the polar method drawing through Float64.
func refNormFloat64(r *RNG) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// refExpFloat64 is -log(u) for the first nonzero uniform u.
func refExpFloat64(r *RNG) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// refParetoSample inverts the bounded Pareto CDF computing every power at
// each draw.
func refParetoSample(r *RNG, min, alpha, max float64) float64 {
	u := r.Float64()
	if max > min {
		la := math.Pow(min, alpha)
		ha := math.Pow(max, alpha)
		return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	}
	return min / math.Pow(1-u, 1/alpha)
}

// refMixturePick is the binary search over the cumulative weights.
func refMixturePick(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

// sameStream draws exactDraws values from got and want, each on its own
// generator from one seed, and fails on the first value whose bits differ
// or when the generators end at different positions.
func sameStream(t *testing.T, seed uint64, got func(*RNG) float64, want func(*RNG) float64) {
	t.Helper()
	a, b := NewRNG(seed), NewRNG(seed)
	for i := 0; i < exactDraws; i++ {
		if g, w := got(a), want(b); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("draw %d: got %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if g, w := a.Uint64(), b.Uint64(); g != w {
		t.Fatalf("next word after %d draws: got %#x, want %#x", exactDraws, g, w)
	}
}

func TestUint64MatchesReference(t *testing.T) {
	r := NewRNG(41)
	s := r.s
	for i := 0; i < exactDraws; i++ {
		if g, w := r.Uint64(), refUint64(&s); g != w {
			t.Fatalf("word %d: got %#x, want %#x", i, g, w)
		}
	}
	if r.s != s {
		t.Fatalf("state after %d words: got %x, want %x", exactDraws, r.s, s)
	}
}

func TestNormFloat64MatchesReference(t *testing.T) {
	sameStream(t, 42, (*RNG).NormFloat64, refNormFloat64)
}

func TestExpFloat64MatchesReference(t *testing.T) {
	sameStream(t, 43, (*RNG).ExpFloat64, refExpFloat64)
}

func TestParetoSampleMatchesReference(t *testing.T) {
	for _, c := range []struct{ min, alpha, max float64 }{
		{50e3, 1.5, 10e6}, // sim's long wakeup
		{8, 1.4, 200},     // a catalog fan-out tail
		{1, 0.8, 0},       // unbounded
	} {
		p := NewPareto(c.min, c.alpha, c.max)
		sameStream(t, 44, p.Sample, func(r *RNG) float64 { return refParetoSample(r, c.min, c.alpha, c.max) })
	}
}

func TestMixtureSampleMatchesReference(t *testing.T) {
	m := NewMixture(
		[]Dist{LogNormal{Mu: 10, Sigma: 1}, Shifted{Base: Exponential{MeanVal: 3}, Offset: 2}, NewPareto(1e6, 1.2, 1e10)},
		[]float64{0.6, 0.35, 0.05},
	)
	sameStream(t, 45, m.Sample, func(r *RNG) float64 {
		return m.Components[refMixturePick(m.cum, r.Float64())].Sample(r)
	})
}

// TestMixturePickAtBoundaries checks the pick on each cumulative weight
// and on the neighbouring floats either side, where a scan and a binary
// search could disagree about ties; a zero weight repeats a boundary.
func TestMixturePickAtBoundaries(t *testing.T) {
	for _, w := range [][]float64{
		{1},
		{0.6, 0.35, 0.05},
		{0.5, 0, 0.5},
		{0, 1, 0},
		{1, 1, 1, 1, 1, 1, 1},
	} {
		comps := make([]Dist, len(w))
		for i := range comps {
			comps[i] = pointMass(i)
		}
		m := NewMixture(comps, w)
		us := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
		for _, c := range m.cum {
			us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 2))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := m.pick(u), refMixturePick(m.cum, u); got != want {
				t.Errorf("weights %v, u=%v: pick %d, want %d", w, u, got, want)
			}
		}
	}
}
