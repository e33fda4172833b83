package sim

import (
	"math"
	"time"

	"rpcscale/internal/stats"
)

// Exo is a snapshot of a cluster's exogenous variables (Table 2 of the
// paper): the system-level state that correlates with RPC latency.
type Exo struct {
	CPUUtil        float64 // fraction of cluster CPU utilized, 0..1
	MemBW          float64 // memory bandwidth utilized, GB/s
	LongWakeupRate float64 // fraction of scheduling wakeups > 50 us
	CPI            float64 // cycles per instruction
}

// ExoModel generates a cluster's exogenous state over time: a diurnal
// utilization wave (user-facing traffic follows the sun) on top of a
// cluster-specific baseline, with correlated memory bandwidth, scheduling
// wakeup delays, and CPI, plus short-timescale noise.
//
// The structure encodes the paper's Fig. 17/18 mechanism: wakeup rate and
// CPI degrade superlinearly as utilization climbs, which is what couples
// cluster load to RPC tail latency.
type ExoModel struct {
	seed uint64 // noise is derived from (seed, time), so At is pure

	baseUtil float64 // mean utilization
	amp      float64 // diurnal amplitude
	phase    float64 // diurnal phase offset, hours
	maxBW    float64 // memory bandwidth at saturation, GB/s
	baseCPI  float64 // CPI at low load

	noise float64 // relative noise scale
}

// NewExoModel draws a cluster's exogenous parameters.
func NewExoModel(rng *stats.RNG) *ExoModel {
	return &ExoModel{
		seed:     rng.Uint64(),
		baseUtil: 0.35 + 0.35*rng.Float64(), // 35%..70% mean utilization
		amp:      0.10 + 0.15*rng.Float64(),
		phase:    24 * rng.Float64(),
		maxBW:    80 + 40*rng.Float64(), // 80..120 GB/s platform ceiling
		baseCPI:  0.85 + 0.25*rng.Float64(),
		noise:    0.05 + 0.05*rng.Float64(),
	}
}

// At returns the exogenous state at simulation time t. The result is a
// pure function of (model, t): noise is derived from the time bucket, so
// concurrent and repeated queries are deterministic and consistent.
// State varies at one-minute granularity, well below the paper's
// 30-minute observation windows.
func (m *ExoModel) At(t time.Duration) Exo {
	bucket := uint64(t / time.Minute)
	rng := stats.NewRNG(m.seed ^ bucket*0x9e3779b97f4a7c15)

	hours := t.Hours()
	diurnal := m.amp * math.Sin(2*math.Pi*(hours-m.phase)/24)
	util := m.baseUtil + diurnal + m.noise*rng.NormFloat64()
	util = clamp(util, 0.03, 0.98)

	// Memory bandwidth tracks utilization with its own noise; heavily
	// loaded clusters saturate toward the platform ceiling.
	bw := m.maxBW * clamp(0.25+0.75*util+0.5*m.noise*rng.NormFloat64(), 0.05, 1.0)

	// Long-wakeup rate: scheduler delays grow superlinearly with load.
	wakeup := (0.002 + 0.018*math.Pow(util, 3)) * (1 + 0.3*rng.NormFloat64())
	wakeup = clamp(wakeup, 0.0005, 0.06)

	// CPI rises with memory pressure and contention.
	cpi := m.baseCPI * (1 + 0.25*math.Pow(util, 2) + 0.1*(bw/m.maxBW)) * (1 + 0.02*rng.NormFloat64())

	return Exo{CPUUtil: util, MemBW: bw, LongWakeupRate: wakeup, CPI: cpi}
}

// MeanUtil returns the cluster's mean utilization level (no noise).
func (m *ExoModel) MeanUtil() float64 { return m.baseUtil }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SlowdownFactor converts exogenous state into a multiplicative slowdown
// on compute-bound work: CPI stretches instruction streams and memory
// bandwidth saturation stalls them. The superlinear utilization term
// makes heavily loaded clusters roughly double compute latency vs. idle,
// the coupling behind Figs. 17/18.
func (e Exo) SlowdownFactor() float64 {
	cpiTerm := e.CPI // direct: latency scales with cycles per instruction
	u := e.CPUUtil
	bwTerm := 1 + 0.2*u*u + 0.8*u*u*u*u
	return cpiTerm * bwTerm
}

// longWakeup is the delay of a long wakeup: 50 us up to ~10 ms,
// Pareto-tailed.
var longWakeup = stats.NewPareto(float64(50*time.Microsecond), 1.5, float64(10*time.Millisecond))

// WakeupDelay samples a scheduling wakeup delay: most wakeups are fast,
// but a LongWakeupRate fraction exceed 50 us, with a heavy tail — the
// paper's "long wakeup" exogenous variable made concrete.
func (e Exo) WakeupDelay(rng *stats.RNG) time.Duration {
	if rng.Bool(e.LongWakeupRate) {
		return time.Duration(longWakeup.Sample(rng))
	}
	return time.Duration(rng.ExpFloat64() * float64(4*time.Microsecond))
}
