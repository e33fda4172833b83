package stats

import "math"

// Moments accumulates streaming mean/variance/covariance for paired
// observations (x, y). It backs the exogenous-variable correlation
// analysis (Fig. 17/18): x is the exogenous variable (CPU utilization,
// memory bandwidth, ...), y the RPC latency.
type Moments struct {
	n                  uint64
	meanX, meanY       float64
	m2X, m2Y, covXYSum float64
}

// Add records one (x, y) pair using Welford's online update.
func (m *Moments) Add(x, y float64) {
	m.n++
	dx := x - m.meanX
	m.meanX += dx / float64(m.n)
	m.m2X += dx * (x - m.meanX)
	dy := y - m.meanY
	m.meanY += dy / float64(m.n)
	m.m2Y += dy * (y - m.meanY)
	m.covXYSum += dx * (y - m.meanY)
}

// VarX returns the population variance of x.
func (m *Moments) VarX() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2X / float64(m.n)
}

// VarY returns the population variance of y.
func (m *Moments) VarY() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2Y / float64(m.n)
}

// Cov returns the population covariance.
func (m *Moments) Cov() float64 {
	if m.n == 0 {
		return 0
	}
	return m.covXYSum / float64(m.n)
}

// Pearson returns the Pearson correlation coefficient, or 0 when either
// variable is constant.
func (m *Moments) Pearson() float64 {
	sx, sy := math.Sqrt(m.VarX()), math.Sqrt(m.VarY())
	if sx == 0 || sy == 0 {
		return 0
	}
	return m.Cov() / (sx * sy)
}

// Pearson computes the correlation of two equal-length slices. It is a
// convenience over Moments for batch analyses; it returns 0 when the
// slices are shorter than 2 or either is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	var m Moments
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	return m.Pearson()
}

// SpearmanRank computes Spearman's rank correlation, which the CPU-cost
// analysis (Fig. 21) uses to show that neither RPC size nor latency
// predicts CPU cost: rank correlation is robust to the heavy tails that
// would dominate Pearson.
func SpearmanRank(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns average ranks (1-based, ties averaged).
func ranks(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion-free sort of indices by value.
	quicksortIdx(vals, idx)
	out := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && vals[idx[j+1]] == vals[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j)) / 2.0
		for k := i; k <= j; k++ {
			out[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return out
}

func quicksortIdx(vals []float64, idx []int) {
	if len(idx) < 2 {
		return
	}
	// Median-of-three pivot to avoid quadratic behavior on sorted input.
	mid := len(idx) / 2
	if vals[idx[mid]] < vals[idx[0]] {
		idx[mid], idx[0] = idx[0], idx[mid]
	}
	if vals[idx[len(idx)-1]] < vals[idx[0]] {
		idx[len(idx)-1], idx[0] = idx[0], idx[len(idx)-1]
	}
	if vals[idx[len(idx)-1]] < vals[idx[mid]] {
		idx[len(idx)-1], idx[mid] = idx[mid], idx[len(idx)-1]
	}
	pivot := vals[idx[mid]]
	i, j := 0, len(idx)-1
	for i <= j {
		for vals[idx[i]] < pivot {
			i++
		}
		for vals[idx[j]] > pivot {
			j--
		}
		if i <= j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	quicksortIdx(vals, idx[:j+1])
	quicksortIdx(vals, idx[i:])
}

// Bucketize groups paired observations by x into nBuckets equal-width
// buckets over [min(x), max(x)] and returns, for each non-empty bucket,
// its center and the mean of y. This is the aggregation behind Fig. 17's
// exogenous-variable panels.
func Bucketize(xs, ys []float64, nBuckets int) (centers, meanYs []float64) {
	if len(xs) != len(ys) || len(xs) == 0 || nBuckets <= 0 {
		return nil, nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		return []float64{lo}, []float64{mean(ys)}
	}
	width := (hi - lo) / float64(nBuckets)
	sums := make([]float64, nBuckets)
	counts := make([]int, nBuckets)
	for i, x := range xs {
		b := int((x - lo) / width)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		sums[b] += ys[i]
		counts[b]++
	}
	for b := 0; b < nBuckets; b++ {
		if counts[b] == 0 {
			continue
		}
		centers = append(centers, lo+(float64(b)+0.5)*width)
		meanYs = append(meanYs, sums[b]/float64(counts[b]))
	}
	return centers, meanYs
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
