package workload

import (
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/sim"
)

// The exogenous-state memo answers exactly what ExoModel.At does, over
// interleaved and repeated (cluster, time) pairs, for a cluster of another
// topology that shares an index with one of the generator's, and for
// clusters outside the memo's range.
func TestExoMemoMatchesAt(t *testing.T) {
	gen := newGen(1)
	cfg := sim.DefaultTopology()
	cfg.Seed++
	other := sim.NewTopology(cfg)
	n := len(testTopo.Clusters)
	clusters := []*sim.Cluster{
		testTopo.Clusters[0], testTopo.Clusters[n-1], testTopo.Clusters[0],
		other.Clusters[0], testTopo.Clusters[0], other.Clusters[0],
		{Name: "beyond", Index: n + 3, Exo: other.Clusters[1].Exo},
		{Name: "negative", Index: -1, Exo: other.Clusters[2].Exo},
	}
	times := []time.Duration{0, time.Hour, time.Hour, time.Hour + time.Second, 30 * time.Second, 0}
	for round := 0; round < 3; round++ {
		for i, at := range times {
			for j := range clusters {
				c := clusters[(i+j+round)%len(clusters)]
				if got, want := gen.exoAt(c, at), c.Exo.At(at); got != want {
					t.Fatalf("exoAt(%s #%d, %v) = %+v, At gives %+v", c.Name, c.Index, at, got, want)
				}
			}
		}
	}
}

// A call that is not materialized builds no span below its root, so what
// it allocates does not grow with its graph: a 30-node graph allocates as
// many objects as a single call.
func TestUnmaterializedCallAllocsFlat(t *testing.T) {
	gen := newGen(3)
	// The method whose graphs come closest to filling the budget.
	m, most := testCat.Methods[0], 0
	for _, cand := range testCat.Methods {
		spans := 0
		for i := 0; i < 20; i++ {
			spans += gen.Call(cand, CallOptions{At: time.Hour, Budget: 30}).Graph.Spans
		}
		if spans > most {
			m, most = cand, spans
		}
	}
	allocs := func(budget int) (float64, int) {
		opts := CallOptions{At: time.Hour, Budget: budget}
		nodes := 0
		// Warm up: the profiler's keys, the memo and the per-graph
		// scratch slices exist before anything is counted.
		for i := 0; i < 300; i++ {
			gen.Call(m, opts)
		}
		a := testing.AllocsPerRun(200, func() { nodes += gen.Call(m, opts).Graph.Spans })
		return a, nodes
	}
	one, oneNodes := allocs(1)
	many, manyNodes := allocs(30)
	if manyNodes < 20*oneNodes {
		t.Fatalf("%s: budget-30 graphs averaged %d nodes against %d; want wide graphs", m.Name, manyNodes/201, oneNodes/201)
	}
	if one != many {
		t.Fatalf("%s: a 1-node call allocates %v objects, a 30-node one %v", m.Name, one, many)
	}
}

// refCoLocated is the co-located placement as a scan of the method's home
// clusters with no table: the client's own cluster when it is one,
// otherwise the nearest, the first listed winning a tie.
func refCoLocated(topo *sim.Topology, m *fleet.Method, client *sim.Cluster) *sim.Cluster {
	for _, h := range m.HomeClusters {
		if topo.Clusters[h] == client {
			return client
		}
	}
	best := topo.Clusters[m.HomeClusters[0]]
	for _, h := range m.HomeClusters[1:] {
		if cand := topo.Clusters[h]; topo.DistanceKm(client, cand) < topo.DistanceKm(client, best) {
			best = cand
		}
	}
	return best
}

// The nearest-home table answers what the scan does for every catalog
// method and client cluster, and a method outside the catalog or a client
// of another topology, which it does not hold, still gets the scan's
// answer.
func TestCoLocatedMatchesScan(t *testing.T) {
	gen := newGen(5)
	cfg := sim.DefaultTopology()
	cfg.Seed++
	other := sim.NewTopology(cfg)
	stranger := *testCat.Methods[7] // same Index, not the catalog's method
	stranger.HomeClusters = []int{3, 1, 4}
	methods := append([]*fleet.Method{&stranger}, testCat.Methods...)
	clients := append([]*sim.Cluster{other.Clusters[0], other.Clusters[5]}, testTopo.Clusters...)
	for _, m := range methods {
		for _, c := range clients {
			if got, want := gen.coLocated(m, c), refCoLocated(testTopo, m, c); got != want {
				t.Fatalf("coLocated(%s, %s) = %s, scan gives %s", m.Name, c.Name, got.Name, want.Name)
			}
		}
	}
}

// Recording through the generator's per-method slots leaves the same
// profile as recording every call by name, bit for bit, and a method
// outside the catalog that shares a catalog method's Index is attributed
// to its own name.
func TestRecordSlotsMatchRecord(t *testing.T) {
	gen := newGen(6)
	want := gwp.New()
	stranger := *testCat.Methods[2]
	stranger.Name = "stranger/Method"
	methods := []*fleet.Method{testCat.Methods[2], &stranger, testCat.Methods[9], testCat.Methods[2]}
	for i := 0; i < 400; i++ {
		m := methods[i%len(methods)]
		cycles := [gwp.NumCategories]float64{float64(i%3) * 0.1, 0.3 / float64(i+1), 0, float64(i%5) - 2, 1e-9 * float64(i)}
		gen.record(m, &cycles)
		want.Record(m.Service.Name, m.Name, &cycles)
	}
	got, exp := gen.prof.Snapshot(), want.Snapshot()
	if got.ByCat != exp.ByCat || len(got.ByMethod) != len(exp.ByMethod) || len(got.Services) != len(exp.Services) {
		t.Fatalf("profile differs: %+v against %+v", got, exp)
	}
	for name, v := range exp.ByMethod {
		if got.ByMethod[name] != v {
			t.Errorf("method %s: %v, want %v", name, got.ByMethod[name], v)
		}
	}
	for i, sp := range exp.Services {
		if *got.Services[i] != *sp {
			t.Errorf("service %d: %+v, want %+v", i, *got.Services[i], *sp)
		}
	}
}
