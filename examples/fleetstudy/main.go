// Fleetstudy: the end-to-end reproduction in miniature — build a
// synthetic fleet, simulate a day of traffic plus 700 days of counters,
// run every analysis of the paper, and print the figure-by-figure report.
//
// This is the example to read to understand how the pieces compose:
//
//	sim.Topology  +  fleet.Catalog  ->  workload.Generate  ->  core.*
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"rpcscale/internal/core"
	"rpcscale/internal/fleet"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

func main() {
	// 1. The world: regions, datacenters, clusters with diurnal load.
	topo := sim.NewTopology(sim.DefaultTopology())
	fmt.Fprintf(os.Stderr, "topology: %d regions, %d datacenters, %d clusters\n",
		len(topo.Regions), len(topo.Datacenters), len(topo.Clusters))

	// 2. The workload: a method catalog calibrated to the paper.
	cat := fleet.New(fleet.Config{Methods: 800, Clusters: len(topo.Clusters), Seed: 7})
	fmt.Fprintf(os.Stderr, "catalog: %d methods in %d services; top method %s (%.0f%% of calls)\n",
		len(cat.Methods), len(cat.Services),
		cat.TopByPopularity(1)[0].Name, cat.TopByPopularity(1)[0].Popularity*100)

	// 3. Simulate: spans, call trees, CPU profiles.
	ds := workload.Generate(context.Background(), cat, topo, workload.RunConfig{
		Seed: 7, MethodSamples: 110, StudiedSamples: 1200,
		VolumeRoots: 50000, Trees: 400,
	})
	fmt.Fprintf(os.Stderr, "simulated %d volume spans, %d trees\n",
		len(ds.VolumeSpans), len(trace.BuildGraphs(ds.TreeSpans)))

	// 4. 700 days of Monarch counters for the growth analysis.
	db := monarch.NewDB(monarch.WithRetention(710 * 24 * time.Hour))
	if err := workload.DeclareMetrics(db); err != nil {
		log.Fatal(err)
	}
	if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: 7}); err != nil {
		log.Fatal(err)
	}

	// 5. Every figure of the paper.
	gen := workload.NewGenerator(cat, topo, nil, 99)
	fmt.Print(core.FullReport(ds, core.ReportOptions{
		DB:              db,
		Generator:       gen,
		LoadBalanceSeed: 5,
		DiurnalSamples:  100,
	}))
}
