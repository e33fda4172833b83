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
// a fresh catalog: ApplyMotifs mutates it.
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

// motifShardReportSHA256 pins TestGraphShapeStreamMatchesFullWithMotifs'
// report per shard count, computed at commit 3cbc8f4, where the
// materialized path rendered the same bytes.
var motifShardReportSHA256 = map[int]string{
	1: "9e36ef99f7f3e096edf11f21f1d2b986e32bf134dc33601ff3aebb42783381fa",
	4: "881ba5b41148ac2bb09d4495539624e2a2db712e5afe16c1986406fdead7ca27",
	8: "4bf717241588559d1ba4f703b2109c5b005d8cf39a860aa4c82186913c7f613e",
}

// The DAG extension of the tentpole guarantee: with every motif pack
// applied — fan-in links, cache branches, sidecar hops, replica writes —
// the streaming report is the pinned one at every shard count, and
// reproducible run-to-run.
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

		if got, want := sha256Hex(first), motifShardReportSHA256[shards]; got != want {
			t.Fatalf("shards=%d: motif report SHA-256 = %s, want %s", shards, got, want)
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
	sink, _ := runSink(cat, topo, workload.RunConfig{
		Seed: 5, MethodSamples: 10, StudiedSamples: 50,
		VolumeRoots: 1000, Trees: 40, MaxDepth: 5, TreeBudget: 300,
	})
	res := sink.GraphShapeAnalysis()
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
