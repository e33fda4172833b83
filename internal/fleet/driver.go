package fleet

import (
	"math"
	"time"

	"rpcscale/internal/stats"
)

// DriveConfig shapes an open-loop load generator over a method catalog:
// Poisson arrivals whose rate follows the paper's diurnal cycle (Fig. 4),
// time-compressed so a 24 h cycle fits a CI run.
type DriveConfig struct {
	// BaseRate is the mean arrival rate in calls per second of *wall*
	// time (after compression), around which the diurnal cycle swings.
	BaseRate float64
	// TimeScale compresses the diurnal cycle: virtual time advances
	// TimeScale× faster than wall time, so at 600× a 24 h cycle completes
	// in 144 s. 0 or 1 leaves time uncompressed.
	TimeScale float64
	// Amplitude is the relative swing of the diurnal cycle: rate(t) =
	// BaseRate × (1 + Amplitude·sin(...)). The paper's weekday cycle
	// swings roughly ±25% around the mean; 0 disables the cycle.
	Amplitude float64
	// PhaseHours shifts the cycle so its peak lands mid-virtual-day.
	PhaseHours float64
	// MaxPayload caps sampled request sizes (bytes), keeping harness
	// traffic under the bulk-lane threshold; 0 means no cap.
	MaxPayload int
	// Seed makes the arrival schedule deterministic.
	Seed uint64
}

// Driver generates one client's open-loop call schedule: each Next returns
// which method to call, how big its request payload is, and how long to
// wait before issuing it. The schedule is deterministic for a given seed —
// the driver advances its own virtual clock from the sampled gaps and
// never reads the wall clock.
type Driver struct {
	cfg DriveConfig
	cat *Catalog
	rng *stats.RNG
	// now is the driver's virtual wall-time position in seconds (the time
	// the next arrival will be issued, before compression).
	now float64
}

// NewDriver builds a driver over the catalog. BaseRate must be positive.
func NewDriver(cat *Catalog, cfg DriveConfig) *Driver {
	if cfg.BaseRate <= 0 {
		cfg.BaseRate = 100
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Amplitude < 0 {
		cfg.Amplitude = 0
	}
	if cfg.Amplitude > 0.9 {
		cfg.Amplitude = 0.9
	}
	return &Driver{cfg: cfg, cat: cat, rng: stats.NewRNG(cfg.Seed).Child("drive")}
}

// Rate returns the instantaneous target arrival rate (calls/s of wall
// time) at wall-time offset t into the run: the diurnal model of
// internal/sim's exogenous load, compressed by TimeScale.
func (d *Driver) Rate(t time.Duration) float64 {
	virtualHours := t.Seconds() * d.cfg.TimeScale / 3600
	swing := d.cfg.Amplitude * math.Sin(2*math.Pi*(virtualHours-d.cfg.PhaseHours)/24)
	return d.cfg.BaseRate * (1 + swing)
}

// Next returns the next arrival: the method to call, its sampled request
// payload size, and the gap to sleep before issuing it (relative to the
// previous arrival). Gaps are exponential with the instantaneous diurnal
// rate, so the schedule is an inhomogeneous Poisson process.
func (d *Driver) Next() (m *Method, reqBytes int, gap time.Duration) {
	rate := d.Rate(time.Duration(d.now * float64(time.Second)))
	if rate <= 0 {
		rate = 1
	}
	gapSec := d.rng.ExpFloat64() / rate
	// Bound pathological gaps so a tiny rate cannot stall the driver.
	if gapSec > 10 {
		gapSec = 10
	}
	d.now += gapSec

	m = d.cat.SampleMethod(d.rng)
	req, _ := m.SampleSizes(d.rng)
	reqBytes = int(req)
	if d.cfg.MaxPayload > 0 && reqBytes > d.cfg.MaxPayload {
		reqBytes = d.cfg.MaxPayload
	}
	return m, reqBytes, time.Duration(gapSec * float64(time.Second))
}
