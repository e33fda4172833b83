package core

import (
	"context"
	"strings"
	"testing"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/workload"
)

// motifWorld builds a motif-wired catalog plus topology. Each caller gets
// a fresh catalog: ApplyMotifs mutates it, and the generator-driven
// figures consume RNG state, so worlds are never shared between paths.
func motifWorld(t *testing.T) (*fleet.Catalog, *sim.Topology) {
	t.Helper()
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})
	packs, err := fleet.ParseMotifs("all")
	if err != nil {
		t.Fatal(err)
	}
	counts := fleet.ApplyMotifs(cat, packs, 9)
	for _, p := range packs {
		if counts[p.Name()] == 0 {
			t.Fatalf("motif pack %s tagged no methods", p.Name())
		}
	}
	return cat, topo
}

// The DAG extension of the tentpole guarantee: with every motif pack
// applied — fan-in links, cache branches, sidecar hops, replica writes —
// the streaming report stays byte-identical to the materialized one at
// every shard count, and reproducible run-to-run.
func TestGraphShapeStreamMatchesFullWithMotifs(t *testing.T) {
	ctx := context.Background()
	cfg := workload.RunConfig{
		Seed: 5, MethodSamples: 40, StudiedSamples: 300,
		VolumeRoots: 6000, Trees: 100, MaxDepth: 6, TreeBudget: 600,
	}
	for _, shards := range []int{1, 4, 8} {
		cfg.Shards = shards

		cat, topo := motifWorld(t)
		first := StreamReport(ctx, cat, topo, cfg, ReportOptions{})
		second := StreamReport(ctx, cat, topo, cfg, ReportOptions{})
		if first != second {
			t.Fatalf("shards=%d: motif streaming report not reproducible", shards)
		}

		cat2, topo2 := motifWorld(t)
		full := FullReport(workload.Generate(ctx, cat2, topo2, cfg), ReportOptions{})
		if full != first {
			firstDiff(t, full, first)
		}

		if !strings.Contains(first, "Fig.G") {
			t.Fatal("report is missing the graph-shape figure")
		}
		if !strings.Contains(first, "graphs with fan-in") {
			t.Fatal("motif report has no fan-in line")
		}
	}
}

func TestGraphShapeAnalysisNoMotifs(t *testing.T) {
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})
	ds := workload.Generate(context.Background(), cat, topo, workload.RunConfig{
		Seed: 5, MethodSamples: 10, StudiedSamples: 50,
		VolumeRoots: 1000, Trees: 40, MaxDepth: 5, TreeBudget: 300,
	})
	res := SinkFromDataset(ds).GraphShapeAnalysis()
	if res.Graphs == 0 {
		t.Fatal("no graphs summarized")
	}
	if res.FanInGraphFrac != 0 || res.FanInEdgesPerGraph != 0 || res.SharedNodes != 0 {
		t.Fatalf("tree-shaped run reports fan-in: %+v", res)
	}
	if res.CensusSpans == 0 {
		t.Fatal("span census empty")
	}
	if res.SizeP50 <= 0 || res.SizeMax < res.SizeP99 {
		t.Fatalf("size quantiles inconsistent: %+v", res)
	}
	out := res.Render()
	if !strings.Contains(out, "Fig.G") {
		t.Fatalf("render missing header:\n%s", out)
	}
}
