package workload

import (
	"context"
	"reflect"
	"testing"

	"rpcscale/internal/fleet"
	"rpcscale/internal/trace"
)

// motifCat builds a fresh motif-wired catalog. ApplyMotifs mutates the
// catalog, so tests must never wire the shared testCat.
func motifCat() *fleet.Catalog {
	cat := fleet.New(fleet.Config{Methods: 400, Clusters: len(testTopo.Clusters), Seed: 11})
	fleet.ApplyMotifs(cat, fleet.DefaultMotifs(), 11)
	return cat
}

var dagCfg = RunConfig{
	Seed: 17, MethodSamples: 10, StudiedSamples: 20,
	VolumeRoots: 2000, Trees: 60, MaxDepth: 6, TreeBudget: 400,
}

func TestNoMotifRunStaysTreeShaped(t *testing.T) {
	rec, _, _ := record(context.Background(), testCat, dagCfg)
	if len(rec.graphs) == 0 {
		t.Fatal("no graph summaries emitted")
	}
	for i, g := range rec.graphs {
		if g.FanInEdges != 0 || g.SharedNodes != 0 {
			t.Fatalf("no-motif graph %d has fan-in: %+v", i, g)
		}
		for m, n := range g.Motifs {
			if trace.Motif(m) != trace.MotifNone && n != 0 {
				t.Fatalf("no-motif graph %d tagged %d %s nodes", i, n, trace.Motif(m))
			}
		}
	}
	for _, s := range rec.spans() {
		if len(s.LinkedParents) != 0 || s.Motif != trace.MotifNone {
			t.Fatalf("no-motif span %s/%s carries DAG fields", s.Service, s.Method)
		}
	}
}

func TestMotifRunDeterministic(t *testing.T) {
	a, _, _ := record(context.Background(), motifCat(), dagCfg)
	b, _, _ := record(context.Background(), motifCat(), dagCfg)
	if !reflect.DeepEqual(a.graphs, b.graphs) {
		t.Fatal("graph summaries differ between identical runs")
	}
	var fanIn, motifs int
	for _, g := range a.graphs {
		fanIn += g.FanInEdges
		for m, n := range g.Motifs {
			if trace.Motif(m) != trace.MotifNone {
				motifs += int(n)
			}
		}
	}
	if fanIn == 0 {
		t.Error("motif run produced no fan-in edges")
	}
	if motifs == 0 {
		t.Error("motif run tagged no nodes")
	}
}

func TestGraphStatWithinBudget(t *testing.T) {
	rec, _, _ := record(context.Background(), motifCat(), dagCfg)
	for i, g := range rec.graphs {
		if g.Spans < 1 {
			t.Fatalf("graph %d has %d spans", i, g.Spans)
		}
		// Sidecar proxies can add a node per edge beyond the budget.
		if g.Spans > 2*dagCfg.TreeBudget {
			t.Fatalf("graph %d has %d spans, budget %d", i, g.Spans, dagCfg.TreeBudget)
		}
		if g.Depth < 0 || g.Width < 1 && g.Spans > 0 {
			t.Fatalf("graph %d has depth %d width %d", i, g.Depth, g.Width)
		}
		if g.SharedNodes > g.FanInEdges {
			t.Fatalf("graph %d: %d shared nodes but %d fan-in edges",
				i, g.SharedNodes, g.FanInEdges)
		}
	}
}

func TestMotifDumpRoundTrip(t *testing.T) {
	rec, _, _ := record(context.Background(), motifCat(), dagCfg)
	loaded, _ := replayDump(t, rec.spans())
	if len(loaded.graphs) == 0 {
		t.Fatal("no graph summaries reconstructed from dump")
	}
	var fanIn int
	for _, g := range loaded.graphs {
		fanIn += g.FanInEdges
	}
	if fanIn == 0 {
		t.Error("reconstructed graphs lost their fan-in edges")
	}
	var linked, tagged bool
	for _, s := range loaded.volume {
		if len(s.LinkedParents) > 0 {
			linked = true
		}
		if s.Motif != trace.MotifNone {
			tagged = true
		}
	}
	if !linked {
		t.Error("linked_parents lost in the dump round-trip")
	}
	if !tagged {
		t.Error("motif tags lost in the dump round-trip")
	}
}
