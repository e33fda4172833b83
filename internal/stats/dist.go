package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a sampleable distribution over positive reals. All the per-method
// models in the fleet catalog (latency, size, CPU cost, fan-out) are
// expressed as Dists so that the simulator can draw from them uniformly.
type Dist interface {
	// Sample draws one value using the given generator.
	Sample(r *RNG) float64
	// Quantile returns the (analytic or numeric) q-quantile, used by the
	// catalog calibrator to place methods against the paper's anchors.
	Quantile(q float64) float64
	// Mean returns the distribution mean (possibly +Inf for very heavy
	// tails).
	Mean() float64
}

// LogNormal is the workhorse distribution of this study: RPC latencies and
// sizes in the paper span orders of magnitude with roughly straight-line
// log-scale CDFs, which lognormal mixtures capture well.
type LogNormal struct {
	Mu    float64 // mean of log(x)
	Sigma float64 // stddev of log(x)
}

// LogNormalFromMedianP99 fits a lognormal from two quantile anchors, the
// median and the 99th percentile. This is how the catalog turns the
// paper's published anchor pairs into samplers.
func LogNormalFromMedianP99(median, p99 float64) LogNormal {
	if median <= 0 || p99 < median {
		panic(fmt.Sprintf("stats: bad lognormal anchors median=%v p99=%v", median, p99))
	}
	// z(0.99) = 2.3263; log(p99) = mu + sigma*z.
	const z99 = 2.3263478740408408
	mu := math.Log(median)
	sigma := (math.Log(p99) - mu) / z99
	if sigma < 1e-9 {
		sigma = 1e-9
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws a lognormal variate.
func (ln LogNormal) Sample(r *RNG) float64 {
	return math.Exp(ln.Mu + ln.Sigma*r.NormFloat64())
}

// Quantile returns the analytic q-quantile.
func (ln LogNormal) Quantile(q float64) float64 {
	return math.Exp(ln.Mu + ln.Sigma*NormQuantile(q))
}

// Mean returns exp(mu + sigma^2/2).
func (ln LogNormal) Mean() float64 {
	return math.Exp(ln.Mu + ln.Sigma*ln.Sigma/2)
}

// Pareto is a bounded Pareto distribution used for heavy-tailed components
// such as elephant message sizes and expensive-query CPU costs. Build one
// with NewPareto, which computes the powers every draw needs once.
type Pareto struct {
	min    float64 // scale (left edge)
	alpha  float64 // shape; smaller alpha = heavier tail
	max    float64 // truncation bound (0 = unbounded)
	la, ha float64 // min^alpha and max^alpha when bounded
}

// NewPareto returns the Pareto distribution with scale min and shape
// alpha, truncated at max (0 = unbounded).
func NewPareto(min, alpha, max float64) Pareto {
	p := Pareto{min: min, alpha: alpha, max: max}
	if max > min {
		p.la, p.ha = math.Pow(min, alpha), math.Pow(max, alpha)
	}
	return p
}

// Sample draws a (bounded) Pareto variate by inversion.
func (p Pareto) Sample(r *RNG) float64 { return p.Quantile(r.Float64()) }

// Quantile returns the q-quantile by inversion.
func (p Pareto) Quantile(q float64) float64 {
	if p.max > p.min {
		return math.Pow(-(q*p.ha-q*p.la-p.ha)/(p.ha*p.la), -1/p.alpha)
	}
	return p.min / math.Pow(1-q, 1/p.alpha)
}

// Mean returns the distribution mean (+Inf when alpha <= 1 and unbounded).
func (p Pareto) Mean() float64 {
	if p.max > p.min {
		a := p.alpha
		if a == 1 {
			return p.min * math.Log(p.max/p.min) / (1 - p.min/p.max)
		}
		return p.la / (1 - math.Pow(p.min/p.max, a)) * a / (a - 1) *
			(1/math.Pow(p.min, a-1) - 1/math.Pow(p.max, a-1))
	}
	if p.alpha <= 1 {
		return math.Inf(1)
	}
	return p.alpha * p.min / (p.alpha - 1)
}

// Exponential has rate 1/MeanVal.
type Exponential struct{ MeanVal float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return e.MeanVal * r.ExpFloat64() }

// Quantile returns the q-quantile.
func (e Exponential) Quantile(q float64) float64 { return -e.MeanVal * math.Log(1-q) }

// Mean returns MeanVal.
func (e Exponential) Mean() float64 { return e.MeanVal }

// Shifted adds Offset to every draw of Base; used to give components a
// floor (e.g., a minimum serialization cost per message).
type Shifted struct {
	Base   Dist
	Offset float64
}

// Sample draws from Base and shifts.
func (s Shifted) Sample(r *RNG) float64 { return s.Offset + s.Base.Sample(r) }

// Quantile shifts the base quantile.
func (s Shifted) Quantile(q float64) float64 { return s.Offset + s.Base.Quantile(q) }

// Mean shifts the base mean.
func (s Shifted) Mean() float64 { return s.Offset + s.Base.Mean() }

// Mixture draws from one of its components with the given weights. RPC
// methods in the paper are visibly multi-modal (e.g., cache hit vs. miss,
// small read vs. bulk read), which single lognormals cannot express.
type Mixture struct {
	Components []Dist
	Weights    []float64 // normalized lazily
	cum        []float64
}

// NewMixture builds a mixture, normalizing the weights.
func NewMixture(components []Dist, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("stats: mixture needs matching non-empty components and weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative mixture weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: mixture weights sum to zero")
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &Mixture{Components: components, Weights: weights, cum: cum}
}

// Sample picks a component by weight and draws from it.
func (m *Mixture) Sample(r *RNG) float64 {
	return m.Components[m.pick(r.Float64())].Sample(r)
}

// pick returns the first component whose cumulative weight reaches u, or
// the last. A mixture has a handful of components, so a scan beats a
// binary search.
func (m *Mixture) pick(u float64) int {
	i := 0
	for i < len(m.cum)-1 && m.cum[i] < u {
		i++
	}
	return i
}

// Quantile is computed numerically by bisection on the mixture CDF.
func (m *Mixture) Quantile(q float64) float64 {
	if q <= 0 {
		q = 1e-9
	}
	if q >= 1 {
		q = 1 - 1e-9
	}
	// Bracket using component quantiles.
	lo, hi := math.Inf(1), 0.0
	for _, c := range m.Components {
		if v := c.Quantile(1e-6); v < lo {
			lo = v
		}
		if v := c.Quantile(1 - 1e-6); v > hi {
			hi = v
		}
	}
	if lo <= 0 {
		lo = 1e-12
	}
	cdf := func(x float64) float64 {
		var f float64
		prev := 0.0
		for i, c := range m.Components {
			w := m.cum[i] - prev
			prev = m.cum[i]
			f += w * distCDF(c, x)
		}
		return f
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection suits log-scale data
		if cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// Mean returns the weighted component mean.
func (m *Mixture) Mean() float64 {
	var mean float64
	prev := 0.0
	for i, c := range m.Components {
		w := m.cum[i] - prev
		prev = m.cum[i]
		mean += w * c.Mean()
	}
	return mean
}

// distCDF evaluates a component CDF, analytically where possible and by
// quantile inversion otherwise.
func distCDF(d Dist, x float64) float64 {
	switch t := d.(type) {
	case LogNormal:
		if x <= 0 {
			return 0
		}
		return normCDF((math.Log(x) - t.Mu) / t.Sigma)
	case Exponential:
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-x/t.MeanVal)
	case Pareto:
		if x <= t.min {
			return 0
		}
		if t.max > t.min {
			if x >= t.max {
				return 1
			}
			return (1 - t.la*math.Pow(x, -t.alpha)) / (1 - math.Pow(t.min/t.max, t.alpha))
		}
		return 1 - math.Pow(t.min/x, t.alpha)
	case Shifted:
		return distCDF(t.Base, x-t.Offset)
	default:
		// Numeric inversion: binary search the quantile function.
		lo, hi := 0.0, 1.0
		for i := 0; i < 50; i++ {
			mid := (lo + hi) / 2
			if d.Quantile(mid) < x {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// NormQuantile returns the standard normal quantile function Phi^-1(q)
// using the Acklam rational approximation (relative error < 1.15e-9).
func NormQuantile(q float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case q < plow:
		u := math.Sqrt(-2 * math.Log(q))
		return (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q > 1-plow:
		u := math.Sqrt(-2 * math.Log(1-q))
		return -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	default:
		u := q - 0.5
		t := u * u
		return (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * u /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	}
}

// Zipf draws ranks in [0, N) with probability proportional to
// 1/(rank+Q)^S, the standard model for RPC method popularity skew. The
// paper reports top-10 methods = 58% of calls and top-100 = 91%; the fleet
// catalog fits S and Q against those anchors.
type Zipf struct {
	N   int
	S   float64
	Q   float64
	cum []float64
}

// NewZipf precomputes the cumulative weights.
func NewZipf(n int, s, q float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	z := &Zipf{N: n, S: s, Q: q, cum: make([]float64, n)}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += math.Pow(float64(i)+q, -s)
		z.cum[i] = acc
	}
	for i := range z.cum {
		z.cum[i] /= acc
	}
	z.cum[n-1] = 1
	return z
}

// Sample draws one rank.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= z.N {
		i = z.N - 1
	}
	return i
}

// CumShare returns the cumulative probability mass of ranks [0, k).
func (z *Zipf) CumShare(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= z.N {
		return 1
	}
	return z.cum[k-1]
}

// Share returns the probability mass of a single rank.
func (z *Zipf) Share(rank int) float64 {
	if rank < 0 || rank >= z.N {
		return 0
	}
	if rank == 0 {
		return z.cum[0]
	}
	return z.cum[rank] - z.cum[rank-1]
}
