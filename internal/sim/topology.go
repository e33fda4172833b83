package sim

import (
	"fmt"
	"math"
	"time"

	"rpcscale/internal/stats"
)

// Region is a geographic area hosting datacenters. Coordinates are in
// kilometres on a plane — crude relative to great-circle geometry but
// sufficient to reproduce the paper's distance-dominated cross-cluster
// latencies (Fig. 19), whose maximum WAN RTT is ~200 ms.
type Region struct {
	Name string
	X, Y float64 // km
}

// Datacenter groups clusters at one site.
type Datacenter struct {
	Name   string
	Region *Region
	X, Y   float64 // km, absolute
}

// Cluster is the placement unit of the study: a set of machines in one
// datacenter sharing a local network. The paper's per-cluster analyses
// (Figs. 16–18, 22) vary over these.
type Cluster struct {
	Name       string
	Datacenter *Datacenter
	Index      int // global index

	// Machines is the number of servers available to each service task
	// pool in this cluster (scaled down from production).
	Machines int

	// SpeedFactor scales compute speed: <1 is a newer/faster platform,
	// >1 older/slower. Drives the fast-vs-slow cluster split of Fig. 18.
	SpeedFactor float64

	// Exo holds the cluster's exogenous state model.
	Exo *ExoModel
}

// Topology is the fleet: regions, datacenters, clusters, and the derived
// inter-cluster wire latency model.
type Topology struct {
	Regions     []*Region
	Datacenters []*Datacenter
	Clusters    []*Cluster

	byName map[string]*Cluster
	// base[a*n+b] is baseOneWay of clusters a and b by Index, n of them.
	base []time.Duration
}

// worldRegions places six regions with rough real-world separations; the
// farthest pairs are ~17,000 km apart, giving ~170 ms fiber RTT, matching
// the paper's ~200 ms maximum WAN round trip with congestion included.
var worldRegions = []Region{
	{Name: "us-east", X: 0, Y: 0},
	{Name: "us-west", X: -4000, Y: 300},
	{Name: "europe", X: 6500, Y: 600},
	{Name: "asia", X: 11000, Y: -800},
	{Name: "southamerica", X: 1000, Y: -7500},
	{Name: "australia", X: 15000, Y: -7000},
}

// TopologyConfig sizes a generated topology.
type TopologyConfig struct {
	Regions            int // number of regions to use (<= 6)
	DatacentersPer     int // datacenters per region
	ClustersPerDC      int // clusters per datacenter
	MachinesPerCluster int
	Seed               uint64
}

// DefaultTopology is a medium fleet: 6 regions x 2 DCs x 3 clusters.
func DefaultTopology() TopologyConfig {
	return TopologyConfig{Regions: 6, DatacentersPer: 2, ClustersPerDC: 3, MachinesPerCluster: 16, Seed: 1}
}

// NewTopology generates a fleet topology. Cluster speed factors and
// exogenous baselines are drawn deterministically from the seed.
func NewTopology(cfg TopologyConfig) *Topology {
	if cfg.Regions <= 0 || cfg.Regions > len(worldRegions) {
		cfg.Regions = len(worldRegions)
	}
	if cfg.DatacentersPer <= 0 {
		cfg.DatacentersPer = 1
	}
	if cfg.ClustersPerDC <= 0 {
		cfg.ClustersPerDC = 1
	}
	if cfg.MachinesPerCluster <= 0 {
		cfg.MachinesPerCluster = 8
	}
	rng := stats.NewRNG(cfg.Seed).Child("topology")
	topo := &Topology{byName: make(map[string]*Cluster)}
	idx := 0
	for r := 0; r < cfg.Regions; r++ {
		region := worldRegions[r]
		topo.Regions = append(topo.Regions, &region)
		for d := 0; d < cfg.DatacentersPer; d++ {
			dc := &Datacenter{
				Name:   fmt.Sprintf("%s-dc%d", region.Name, d),
				Region: &region,
				X:      region.X + (rng.Float64()-0.5)*600,
				Y:      region.Y + (rng.Float64()-0.5)*600,
			}
			topo.Datacenters = append(topo.Datacenters, dc)
			for c := 0; c < cfg.ClustersPerDC; c++ {
				cl := &Cluster{
					Name:        fmt.Sprintf("%s-c%d", dc.Name, c),
					Datacenter:  dc,
					Index:       idx,
					Machines:    cfg.MachinesPerCluster,
					SpeedFactor: 0.8 + 0.5*rng.Float64(), // 0.8x..1.3x
					Exo:         NewExoModel(rng.Child(fmt.Sprintf("exo-%d", idx))),
				}
				idx++
				topo.Clusters = append(topo.Clusters, cl)
				topo.byName[cl.Name] = cl
			}
		}
	}
	n := len(topo.Clusters)
	topo.base = make([]time.Duration, n*n)
	for _, a := range topo.Clusters {
		for _, b := range topo.Clusters {
			topo.base[a.Index*n+b.Index] = topo.pairBase(a, b)
		}
	}
	return topo
}

// ClusterByName looks up a cluster, returning nil when absent.
func (t *Topology) ClusterByName(name string) *Cluster { return t.byName[name] }

// DistanceKm returns the straight-line distance between two clusters'
// datacenters.
func (t *Topology) DistanceKm(a, b *Cluster) float64 {
	dx := a.Datacenter.X - b.Datacenter.X
	dy := a.Datacenter.Y - b.Datacenter.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Proximity classifies a cluster pair the way Fig. 19's x-axis groups
// them.
type Proximity int

// Proximity classes, nearest first.
const (
	SameCluster Proximity = iota
	SameDatacenter
	SameRegion
	DifferentRegion
)

// String returns the class name.
func (p Proximity) String() string {
	switch p {
	case SameCluster:
		return "same-cluster"
	case SameDatacenter:
		return "same-datacenter"
	case SameRegion:
		return "same-region"
	default:
		return "different-region"
	}
}

// ProximityOf classifies a cluster pair.
func (t *Topology) ProximityOf(a, b *Cluster) Proximity {
	switch {
	case a == b:
		return SameCluster
	case a.Datacenter == b.Datacenter:
		return SameDatacenter
	case a.Datacenter.Region.Name == b.Datacenter.Region.Name:
		return SameRegion
	default:
		return DifferentRegion
	}
}

// Network latency model constants.
const (
	// intraClusterOneWay is the baseline one-way latency between two
	// machines in one cluster (ToR + fabric hops).
	intraClusterOneWay = 25 * time.Microsecond

	// interClusterSameDCOneWay adds the DC spine crossing.
	interClusterSameDCOneWay = 150 * time.Microsecond
)

// fiberOneWay converts a distance to one-way propagation delay in fiber
// (refractive index ~1.47 -> ~204,000 km/s -> ~4.9 microseconds per km).
func fiberOneWay(km float64) time.Duration {
	return time.Duration(km * 4.9 * float64(time.Microsecond))
}

// congestionSpike is the queuing a congestion spike adds: 5 ms up to
// 600 ms, Pareto-tailed.
var congestionSpike = stats.NewPareto(float64(5*time.Millisecond), 1.2, float64(600*time.Millisecond))

// WireOneWay samples the one-way network latency between clusters for a
// message of size bytes, at background utilization netUtil (0..1):
// propagation + transmission + congestion-dependent queuing.
//
// Congestion follows the paper's finding that WAN tails exceed the maximum
// propagation delay: queuing delay is exponential in the common case with
// a Pareto spike tail whose probability rises with utilization.
func (t *Topology) WireOneWay(rng *stats.RNG, a, b *Cluster, bytes int64, netUtil float64) time.Duration {
	base := t.baseOneWay(a, b)
	// Transmission at ~10 Gb/s effective per-flow throughput.
	transmit := time.Duration(float64(bytes) * 0.8) // 0.8 ns per byte
	// Switch/fabric queuing: exponential with mean growing with load.
	if netUtil > 0.95 {
		netUtil = 0.95
	}
	meanQ := 20*time.Microsecond + time.Duration(float64(base)*0.05*netUtil/(1-netUtil))
	queuing := time.Duration(rng.ExpFloat64() * float64(meanQ))
	// Occasional congestion spikes (bursts, retransmits): probability and
	// magnitude grow with utilization.
	if rng.Bool(0.002 + 0.02*netUtil) {
		queuing += time.Duration(congestionSpike.Sample(rng))
	}
	return base + transmit + queuing
}

// MinRTT returns the no-load round-trip wire time between two clusters,
// used by the Fig. 19 cross-validation that wire latency, not congestion,
// dominates average cross-cluster RPCs.
func (t *Topology) MinRTT(a, b *Cluster) time.Duration { return 2 * t.baseOneWay(a, b) }

// baseOneWay is the no-load one-way wire latency between two clusters:
// read from the table for the topology's own clusters, worked out for
// any other.
func (t *Topology) baseOneWay(a, b *Cluster) time.Duration {
	if n := len(t.Clusters); uint(a.Index) < uint(n) && uint(b.Index) < uint(n) &&
		t.Clusters[a.Index] == a && t.Clusters[b.Index] == b {
		return t.base[a.Index*n+b.Index]
	}
	return t.pairBase(a, b)
}

// pairBase works out baseOneWay from the pair's proximity and distance.
func (t *Topology) pairBase(a, b *Cluster) time.Duration {
	switch t.ProximityOf(a, b) {
	case SameCluster:
		return intraClusterOneWay
	case SameDatacenter:
		return interClusterSameDCOneWay
	default:
		return interClusterSameDCOneWay + fiberOneWay(t.DistanceKm(a, b))
	}
}
