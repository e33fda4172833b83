package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rpcscale/internal/stats"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	e.At(time.Millisecond, func() {
		e.After(2*time.Millisecond, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 1 || at[0] != 3*time.Millisecond {
		t.Fatalf("nested event at %v", at)
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	var fired time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(time.Millisecond, func() { ran++ })
	e.At(time.Hour, func() { ran++ })
	e.RunUntil(time.Minute)
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	if e.Now() != time.Minute {
		t.Errorf("clock = %v, want 1m", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestTopologyGeneration(t *testing.T) {
	topo := NewTopology(TopologyConfig{Regions: 3, DatacentersPer: 2, ClustersPerDC: 2, MachinesPerCluster: 4, Seed: 7})
	if len(topo.Regions) != 3 || len(topo.Datacenters) != 6 || len(topo.Clusters) != 12 {
		t.Fatalf("sizes: %d regions %d dcs %d clusters",
			len(topo.Regions), len(topo.Datacenters), len(topo.Clusters))
	}
	for _, c := range topo.Clusters {
		if topo.ClusterByName(c.Name) != c {
			t.Fatalf("lookup failed for %s", c.Name)
		}
		if c.SpeedFactor < 0.8 || c.SpeedFactor > 1.3 {
			t.Errorf("speed factor %v out of range", c.SpeedFactor)
		}
		if c.Exo == nil {
			t.Fatal("cluster missing exo model")
		}
	}
}

func TestTopologyDeterministic(t *testing.T) {
	cfg := DefaultTopology()
	a, b := NewTopology(cfg), NewTopology(cfg)
	for i := range a.Clusters {
		if a.Clusters[i].Name != b.Clusters[i].Name ||
			a.Clusters[i].SpeedFactor != b.Clusters[i].SpeedFactor {
			t.Fatal("topology generation not deterministic")
		}
	}
}

func TestProximityClassification(t *testing.T) {
	topo := NewTopology(TopologyConfig{Regions: 2, DatacentersPer: 2, ClustersPerDC: 2, Seed: 1})
	c := topo.Clusters
	if got := topo.ProximityOf(c[0], c[0]); got != SameCluster {
		t.Errorf("self = %v", got)
	}
	if got := topo.ProximityOf(c[0], c[1]); got != SameDatacenter {
		t.Errorf("same dc = %v", got)
	}
	if got := topo.ProximityOf(c[0], c[2]); got != SameRegion {
		t.Errorf("same region = %v", got)
	}
	if got := topo.ProximityOf(c[0], c[4]); got != DifferentRegion {
		t.Errorf("cross region = %v", got)
	}
}

func TestWireLatencyOrdering(t *testing.T) {
	topo := NewTopology(DefaultTopology())
	rng := stats.NewRNG(2)
	c := topo.Clusters
	// Compare medians: congestion spikes are deliberately heavy-tailed
	// and would dominate a mean.
	med := func(a, b *Cluster) time.Duration {
		s := stats.NewSample(301)
		for i := 0; i < 301; i++ {
			s.Add(float64(topo.WireOneWay(rng, a, b, 1000, 0.3)))
		}
		return time.Duration(s.Quantile(0.5))
	}
	same := med(c[0], c[0])
	sameDC := med(c[0], c[1])
	crossRegion := med(c[0], c[len(c)-1])
	if !(same < sameDC && sameDC < crossRegion) {
		t.Fatalf("latency ordering violated: %v %v %v", same, sameDC, crossRegion)
	}
	// Cross-region must be dominated by propagation: >= fiber one-way.
	minFiber := fiberOneWay(topo.DistanceKm(c[0], c[len(c)-1]))
	if crossRegion < minFiber {
		t.Errorf("cross-region %v below speed of light %v", crossRegion, minFiber)
	}
}

func TestWireLatencyCongestionGrowsWithUtil(t *testing.T) {
	topo := NewTopology(DefaultTopology())
	c := topo.Clusters
	avg := func(util float64, seed uint64) time.Duration {
		rng := stats.NewRNG(seed)
		var total time.Duration
		const n = 2000
		for i := 0; i < n; i++ {
			total += topo.WireOneWay(rng, c[0], c[1], 1000, util)
		}
		return total / n
	}
	low, high := avg(0.1, 3), avg(0.9, 3)
	if high <= low {
		t.Fatalf("congestion did not grow with utilization: %v vs %v", low, high)
	}
}

func TestMinRTTMatchesPaperScale(t *testing.T) {
	topo := NewTopology(DefaultTopology())
	var maxRTT time.Duration
	for _, a := range topo.Clusters {
		for _, b := range topo.Clusters {
			if rtt := topo.MinRTT(a, b); rtt > maxRTT {
				maxRTT = rtt
			}
		}
	}
	// Paper: longest WAN RTT ~200 ms. Our world should land 100-250 ms.
	if maxRTT < 100*time.Millisecond || maxRTT > 250*time.Millisecond {
		t.Errorf("max WAN RTT = %v, want ~200ms scale", maxRTT)
	}
}

// The base-latency table answers as the pair's own proximity and
// distance do, and a cluster from another topology (whose Index may name
// a different cluster here) is worked out, not looked up.
func TestBaseOneWayTable(t *testing.T) {
	topo := NewTopology(DefaultTopology())
	for _, a := range topo.Clusters {
		for _, b := range topo.Clusters {
			if got, want := topo.baseOneWay(a, b), topo.pairBase(a, b); got != want {
				t.Fatalf("%s -> %s: table %v, pair %v", a.Name, b.Name, got, want)
			}
		}
	}
	cfg := DefaultTopology()
	cfg.Seed = 9
	other := NewTopology(cfg)
	for _, a := range other.Clusters {
		for _, b := range topo.Clusters {
			if got, want := topo.baseOneWay(a, b), topo.pairBase(a, b); got != want {
				t.Fatalf("outside %s -> %s: %v, pair %v", a.Name, b.Name, got, want)
			}
		}
	}
}

func TestExoDiurnalCycle(t *testing.T) {
	m := NewExoModel(stats.NewRNG(5))
	// Sample utilization over 24h; the diurnal wave must produce a spread
	// of at least ~amp around the base.
	var lo, hi = 1.0, 0.0
	for h := 0; h < 24; h++ {
		var day float64
		for rep := 0; rep < 20; rep++ {
			day += m.At(time.Duration(h) * time.Hour).CPUUtil
		}
		day /= 20
		if day < lo {
			lo = day
		}
		if day > hi {
			hi = day
		}
	}
	if hi-lo < m.amp {
		t.Errorf("diurnal spread %v < amplitude %v", hi-lo, m.amp)
	}
}

func TestExoBoundsAndCorrelation(t *testing.T) {
	m := NewExoModel(stats.NewRNG(6))
	var utils, wakeups, cpis []float64
	for i := 0; i < 2000; i++ {
		e := m.At(time.Duration(i) * 10 * time.Minute)
		if e.CPUUtil < 0.03 || e.CPUUtil > 0.98 {
			t.Fatalf("util %v out of bounds", e.CPUUtil)
		}
		if e.MemBW <= 0 || e.LongWakeupRate <= 0 || e.CPI <= 0 {
			t.Fatal("non-positive exogenous value")
		}
		utils = append(utils, e.CPUUtil)
		wakeups = append(wakeups, e.LongWakeupRate)
		cpis = append(cpis, e.CPI)
	}
	// Wakeup rate and CPI must correlate positively with utilization —
	// that is the causal structure of Figs. 17/18.
	if r := stats.Pearson(utils, wakeups); r < 0.3 {
		t.Errorf("util-wakeup correlation = %v, want strongly positive", r)
	}
	if r := stats.Pearson(utils, cpis); r < 0.3 {
		t.Errorf("util-CPI correlation = %v, want strongly positive", r)
	}
}

func TestSlowdownFactorMonotone(t *testing.T) {
	low := Exo{CPUUtil: 0.1, CPI: 0.9, MemBW: 30}
	high := Exo{CPUUtil: 0.95, CPI: 1.3, MemBW: 110}
	if low.SlowdownFactor() >= high.SlowdownFactor() {
		t.Error("slowdown must grow with load")
	}
}

func TestWakeupDelayTail(t *testing.T) {
	rng := stats.NewRNG(7)
	e := Exo{LongWakeupRate: 0.5} // force frequent long wakeups
	long := 0
	for i := 0; i < 1000; i++ {
		if e.WakeupDelay(rng) >= 50*time.Microsecond {
			long++
		}
	}
	if long < 350 || long > 650 {
		t.Errorf("long wakeups = %d/1000, want ~500", long)
	}
}

func TestQueueWaitGrowsWithUtil(t *testing.T) {
	exo := Exo{LongWakeupRate: 0.001}
	mean := func(util float64) time.Duration {
		rng := stats.NewRNG(8)
		var total time.Duration
		const n = 5000
		for i := 0; i < n; i++ {
			total += QueueWait(rng, time.Millisecond, util, exo)
		}
		return total / n
	}
	w10, w50, w90 := mean(0.1), mean(0.5), mean(0.9)
	if !(w10 < w50 && w50 < w90) {
		t.Fatalf("queue wait not monotone in util: %v %v %v", w10, w50, w90)
	}
	// At 90% utilization the M/M/1 mean wait is ~9x service.
	if w90 < 3*time.Millisecond {
		t.Errorf("high-util wait %v implausibly low", w90)
	}
}

func TestServerFIFOAndUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "m0", 1, FIFO)
	var waits []time.Duration
	for i := 0; i < 3; i++ {
		s.Submit(&Job{Service: 10 * time.Millisecond, Done: func(w time.Duration) { waits = append(waits, w) }})
	}
	e.Run()
	if len(waits) != 3 {
		t.Fatalf("served = %d", len(waits))
	}
	if waits[0] != 0 || waits[1] != 10*time.Millisecond || waits[2] != 20*time.Millisecond {
		t.Errorf("waits = %v", waits)
	}
	if u := s.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Errorf("utilization = %v, want 1.0 (back-to-back)", u)
	}
}

func TestServerSJFAvoidsHOLBlocking(t *testing.T) {
	// Submit an elephant then many mice while the server is busy; SJF
	// must serve mice before the elephant, FIFO must not.
	run := func(d Discipline) (mouseWait time.Duration) {
		e := NewEngine()
		s := NewServer(e, "m0", 1, d)
		s.Submit(&Job{Service: time.Millisecond}) // occupies server
		s.Submit(&Job{Service: 100 * time.Millisecond})
		var wait time.Duration
		s.Submit(&Job{Service: time.Millisecond, Done: func(w time.Duration) { wait = w }})
		e.Run()
		return wait
	}
	fifoWait := run(FIFO)
	sjfWait := run(SJF)
	if sjfWait >= fifoWait {
		t.Fatalf("SJF wait %v >= FIFO wait %v", sjfWait, fifoWait)
	}
	if fifoWait < 100*time.Millisecond {
		t.Errorf("FIFO mouse did not suffer HOL blocking: %v", fifoWait)
	}
}

func TestServerCapacityParallelism(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "m0", 4, FIFO)
	done := 0
	for i := 0; i < 4; i++ {
		s.Submit(&Job{Service: 10 * time.Millisecond, Done: func(time.Duration) { done++ }})
	}
	e.Run()
	if e.Now() != 10*time.Millisecond {
		t.Errorf("4 parallel jobs took %v, want 10ms", e.Now())
	}
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestServerQueueStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "m0", 1, FIFO)
	var total time.Duration
	for i := 0; i < 5; i++ {
		s.Submit(&Job{Service: time.Millisecond, Done: func(w time.Duration) { total += w }})
	}
	if s.Load() != 5 {
		t.Errorf("load = %d, want 4 queued + 1 running", s.Load())
	}
	e.Run()
	if s.Load() != 0 {
		t.Errorf("load = %d after the run", s.Load())
	}
	if total/5 != 2*time.Millisecond {
		t.Errorf("mean wait = %v, want 2ms", total/5)
	}
}

func TestProximityString(t *testing.T) {
	names := map[Proximity]string{
		SameCluster: "same-cluster", SameDatacenter: "same-datacenter",
		SameRegion: "same-region", DifferentRegion: "different-region",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d -> %q", p, p.String())
		}
	}
	if FIFO.String() != "fifo" || SJF.String() != "sjf" {
		t.Error("discipline names wrong")
	}
}

func TestEngineOrderingProperty(t *testing.T) {
	// Whatever order events are scheduled in, they fire in time order
	// with FIFO tie-breaking.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		e := NewEngine()
		n := 50 + rng.Intn(200)
		var fired []time.Duration
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestServerConservationProperty(t *testing.T) {
	// Every submitted job is eventually served exactly once.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		e := NewEngine()
		srv := NewServer(e, "m", 1+rng.Intn(4), Discipline(rng.Intn(2)))
		n := 1 + rng.Intn(300)
		done := 0
		for i := 0; i < n; i++ {
			srv.Submit(&Job{
				Service: time.Duration(1+rng.Intn(1000)) * time.Microsecond,
				Done:    func(time.Duration) { done++ },
			})
			if rng.Bool(0.5) {
				e.RunUntil(e.Now() + time.Duration(rng.Intn(500))*time.Microsecond)
			}
		}
		e.Run()
		return done == n && srv.Load() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
