// Fleetstudy: the end-to-end reproduction in miniature — build a
// synthetic fleet, simulate a day of traffic plus 700 days of counters,
// run every analysis of the paper, and print the figure-by-figure report.
//
// This is the example to read to understand how the pieces compose:
//
//	sim.Topology  +  fleet.Catalog  ->  workload.Run  ->  core.ReportSink
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

	// 3. 700 days of Monarch counters for the growth analysis.
	db := monarch.NewDB(monarch.WithRetention(710 * 24 * time.Hour))
	if err := workload.DeclareMetrics(db); err != nil {
		log.Fatal(err)
	}
	if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: 7}); err != nil {
		log.Fatal(err)
	}

	// 4. Simulate spans, call trees and CPU profiles, streaming each
	// shard into its own report sink, then render every figure of the
	// paper from the merged sinks.
	gen := workload.NewGenerator(cat, topo, nil, 99)
	cfg := workload.RunConfig{
		Seed: 7, MethodSamples: 110, StudiedSamples: 1200,
		VolumeRoots: 50000, Trees: 400,
	}
	fmt.Print(core.StreamReport(context.Background(), cat, topo, cfg, core.ReportOptions{
		DB:              db,
		Generator:       gen,
		LoadBalanceSeed: 5,
		DiurnalSamples:  100,
	}))
}
