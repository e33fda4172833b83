package workload

import (
	"math"
	"time"

	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
)

// Monarch metric names exported by the fleet.
const (
	MetricRPS     = "fleet/rps"           // Counter: RPCs per window
	MetricCPU     = "fleet/cpu_cycles"    // Counter: cycles per window
	MetricLatP95  = "service/latency_p95" // Gauge: windowed P95, ns
	MetricCPUUtil = "cluster/cpu_util"    // Gauge
	MetricMemBW   = "cluster/mem_bw"      // Gauge, GB/s
	MetricWakeup  = "cluster/long_wakeup" // Gauge, fraction
	MetricCPI     = "cluster/cpi"         // Gauge
)

// DeclareMetrics registers the fleet metrics on a Monarch DB.
func DeclareMetrics(db *monarch.DB) error {
	for m, k := range map[string]monarch.Kind{
		MetricRPS:     monarch.Counter,
		MetricCPU:     monarch.Counter,
		MetricLatP95:  monarch.Gauge,
		MetricCPUUtil: monarch.Gauge,
		MetricMemBW:   monarch.Gauge,
		MetricWakeup:  monarch.Gauge,
		MetricCPI:     monarch.Gauge,
	} {
		if err := db.Declare(m, k); err != nil {
			return err
		}
	}
	return nil
}

// GrowthConfig parameterizes the 700-day fleet history (Fig. 1).
type GrowthConfig struct {
	Days int // observation period; the paper uses 700
	Seed uint64

	// AnnualRPSGrowth and AnnualCPUGrowth are the yearly growth rates of
	// call volume and cycle consumption. The paper's headline — RPS per
	// CPU cycle grows ~30%/yr — is their ratio: RPC volume grows faster
	// than the compute serving it.
	AnnualRPSGrowth float64
	AnnualCPUGrowth float64
}

// DefaultGrowth matches the paper's observation.
func DefaultGrowth() GrowthConfig {
	return GrowthConfig{Days: 700, Seed: 1, AnnualRPSGrowth: 0.82, AnnualCPUGrowth: 0.40}
}

// WriteGrowthHistory writes daily fleet RPS and CPU-cycle counters over
// the configured period, with weekly seasonality and day-to-day noise.
// Analyses recover Fig. 1 by querying the two series and taking their
// normalized ratio.
func WriteGrowthHistory(db *monarch.DB, cfg GrowthConfig) error {
	if cfg.Days <= 0 {
		cfg.Days = 700
	}
	if cfg.AnnualRPSGrowth == 0 {
		cfg.AnnualRPSGrowth = DefaultGrowth().AnnualRPSGrowth
	}
	if cfg.AnnualCPUGrowth == 0 {
		cfg.AnnualCPUGrowth = DefaultGrowth().AnnualCPUGrowth
	}
	rng := stats.NewRNG(cfg.Seed).Child("growth")
	labels := monarch.Labels{"scope": "fleet"}
	const baseRPS = 1e9 // calls/day at day zero (arbitrary unit)
	const baseCPU = 5e9 // cycles/day at day zero
	for d := 0; d < cfg.Days; d++ {
		at := Epoch.Add(time.Duration(d) * 24 * time.Hour)
		years := float64(d) / 365.0
		weekly := 1.0
		switch at.Weekday() {
		case time.Saturday, time.Sunday:
			weekly = 0.88 // weekend dip in interactive traffic
		}
		noiseR := 1 + 0.03*rng.NormFloat64()
		noiseC := 1 + 0.03*rng.NormFloat64()
		rps := baseRPS * pow(1+cfg.AnnualRPSGrowth, years) * weekly * noiseR
		cpu := baseCPU * pow(1+cfg.AnnualCPUGrowth, years) * weekly * noiseC
		if err := db.Write(MetricRPS, labels, at, rps); err != nil {
			return err
		}
		if err := db.Write(MetricCPU, labels, at, cpu); err != nil {
			return err
		}
	}
	return nil
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

// WriteDiurnalDay generates the Fig. 18 dataset: for one studied method
// and one cluster, 24 hours of 30-minute windows, each with the cluster's
// exogenous gauges and the window's P95 RPC latency.
func WriteDiurnalDay(db *monarch.DB, gen *Generator, method string, cluster *sim.Cluster, samplesPerWindow int) error {
	m := gen.Cat.MethodByName(method)
	if m == nil {
		return errNoMethod(method)
	}
	if samplesPerWindow <= 0 {
		samplesPerWindow = 150
	}
	labels := monarch.Labels{"method": method, "cluster": cluster.Name}
	for w := 0; w < 48; w++ {
		at := time.Duration(w) * 30 * time.Minute
		wall := Epoch.Add(at)
		lat := stats.NewSample(samplesPerWindow)
		var exoSum sim.Exo
		for i := 0; i < samplesPerWindow; i++ {
			obs := gen.Call(m, CallOptions{Client: cluster, SameClusterOnly: true, At: at, MaxDepth: 3, Budget: 64})
			lat.Add(float64(obs.Span.Latency()))
			exoSum.CPUUtil += obs.Exo.CPUUtil
			exoSum.MemBW += obs.Exo.MemBW
			exoSum.LongWakeupRate += obs.Exo.LongWakeupRate
			exoSum.CPI += obs.Exo.CPI
		}
		n := float64(samplesPerWindow)
		for metric, v := range map[string]float64{
			MetricLatP95:  lat.Quantile(0.95),
			MetricCPUUtil: exoSum.CPUUtil / n,
			MetricMemBW:   exoSum.MemBW / n,
			MetricWakeup:  exoSum.LongWakeupRate / n,
			MetricCPI:     exoSum.CPI / n,
		} {
			if err := db.Write(metric, labels, wall, v); err != nil {
				return err
			}
		}
	}
	return nil
}

type errNoMethod string

func (e errNoMethod) Error() string { return "workload: unknown method " + string(e) }
