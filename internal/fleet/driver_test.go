package fleet

import (
	"math"
	"testing"
	"time"
)

func driverCatalog(t *testing.T) *Catalog {
	t.Helper()
	return New(Config{Methods: 200, Clusters: 36, Seed: 1})
}

func TestDriverDeterministic(t *testing.T) {
	cat := driverCatalog(t)
	mk := func() (names []string, gaps []time.Duration) {
		d := NewDriver(cat, DriveConfig{BaseRate: 500, TimeScale: 600, Amplitude: 0.25, Seed: 7})
		for i := 0; i < 200; i++ {
			m, _, gap := d.Next()
			names = append(names, m.Name)
			gaps = append(gaps, gap)
		}
		return
	}
	n1, g1 := mk()
	n2, g2 := mk()
	for i := range n1 {
		if n1[i] != n2[i] || g1[i] != g2[i] {
			t.Fatalf("arrival %d differs across identical drivers", i)
		}
	}
}

func TestDriverRateFollowsDiurnalCycle(t *testing.T) {
	cat := driverCatalog(t)
	d := NewDriver(cat, DriveConfig{BaseRate: 1000, TimeScale: 600, Amplitude: 0.25, Seed: 1})
	// At 600× compression a full 24 h cycle spans 144 s of wall time. The
	// rate must swing above and below base across the cycle.
	var lo, hi = math.Inf(1), math.Inf(-1)
	for s := 0; s <= 144; s++ {
		r := d.Rate(time.Duration(s) * time.Second)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi < 1000*1.2 || lo > 1000*0.8 {
		t.Errorf("diurnal swing too small: lo=%.0f hi=%.0f", lo, hi)
	}
	// Mean gap over many arrivals ≈ 1/rate near the mean.
	var total time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		_, _, gap := d.Next()
		total += gap
	}
	meanGap := total.Seconds() / n
	if meanGap <= 0 || meanGap > 3.0/1000*2 {
		t.Errorf("mean gap %.6fs implausible for ~1000/s base rate", meanGap)
	}
}

func TestDriverPayloadCap(t *testing.T) {
	cat := driverCatalog(t)
	d := NewDriver(cat, DriveConfig{BaseRate: 100, MaxPayload: 4096, Seed: 3})
	var elapsed time.Duration
	for i := 0; i < 2000; i++ {
		_, req, gap := d.Next()
		elapsed += gap
		if req > 4096 {
			t.Fatalf("payload %d exceeds cap", req)
		}
		if req <= 0 {
			t.Fatalf("payload %d not positive", req)
		}
	}
	if elapsed <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestDriverDefaults(t *testing.T) {
	cat := driverCatalog(t)
	d := NewDriver(cat, DriveConfig{})
	m, req, gap := d.Next()
	if m == nil || req <= 0 || gap < 0 {
		t.Fatalf("defaulted driver produced m=%v req=%d gap=%v", m, req, gap)
	}
	// Amplitude clamps to 0.9 so the rate never goes negative.
	d2 := NewDriver(cat, DriveConfig{BaseRate: 100, Amplitude: 5})
	for s := 0; s < 90000; s += 600 {
		if r := d2.Rate(time.Duration(s) * time.Second); r <= 0 {
			t.Fatalf("rate %f not positive at %ds", r, s)
		}
	}
}
