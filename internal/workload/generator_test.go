package workload

import (
	"testing"
	"time"

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
