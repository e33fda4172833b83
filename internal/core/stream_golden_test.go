package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/workload"
)

// goldenWorld builds a fresh catalog/topology pair plus report options
// with their own Monarch DB and generator. Each report path gets its own
// world: the generator-driven figures (18, 19, co-location) consume RNG
// state and write to the DB, so sharing them across paths would make the
// second report see different state.
func goldenWorld(t *testing.T, methods int) (*fleet.Catalog, *sim.Topology, ReportOptions) {
	t.Helper()
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: methods, Clusters: len(topo.Clusters), Seed: 9})
	db := monarch.NewDB(monarch.WithWindow(24 * time.Hour))
	if err := workload.DeclareMetrics(db); err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteGrowthHistory(db, workload.GrowthConfig{Days: 700, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return cat, topo, ReportOptions{
		DB:             db,
		Generator:      workload.NewGenerator(cat, topo, nil, 8),
		DiurnalSamples: 12,
	}
}

func firstDiff(t *testing.T, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			t.Fatalf("reports diverge at line %d:\n  full:   %q\n  stream: %q", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("reports diverge in length: %d vs %d lines", len(al), len(bl))
}

// The tentpole guarantee: the streaming report — per-shard accumulators
// merged in shard order, no Dataset ever materialized — is byte-identical
// to materializing the Dataset and replaying it through FullReport, at
// the default run configuration's seed.
func TestStreamReportMatchesFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report golden comparison is slow")
	}
	cfg := workload.DefaultRun()
	ctx := context.Background()

	cat, topo, opts := goldenWorld(t, 400)
	full := FullReport(workload.Generate(ctx, cat, topo, cfg), opts)

	cat2, topo2, opts2 := goldenWorld(t, 400)
	stream := StreamReport(ctx, cat2, topo2, cfg, opts2)

	if full != stream {
		firstDiff(t, full, stream)
	}
	if !strings.Contains(full, "Fig.23") || !strings.Contains(full, "Fig.2 anchors") {
		t.Fatal("golden report is missing expected figures")
	}
}

// For every shard count the streaming path must be (a) reproducible and
// (b) byte-identical to the materialized path at that same shard count —
// the merge is a deterministic fold over shard-index order, never over
// goroutine completion order.
func TestStreamReportShardDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := workload.RunConfig{
		Seed: 5, MethodSamples: 40, StudiedSamples: 300,
		VolumeRoots: 6000, Trees: 100, MaxDepth: 6, TreeBudget: 600,
	}
	for _, shards := range []int{1, 4, 8} {
		cfg.Shards = shards
		topo := sim.NewTopology(sim.DefaultTopology())
		cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})

		first := StreamReport(ctx, cat, topo, cfg, ReportOptions{})
		second := StreamReport(ctx, cat, topo, cfg, ReportOptions{})
		if first != second {
			t.Fatalf("shards=%d: streaming report not reproducible", shards)
		}
		full := FullReport(workload.Generate(ctx, cat, topo, cfg), ReportOptions{})
		if full != first {
			firstDiff(t, full, first)
		}
	}
}
