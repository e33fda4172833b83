package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/monarch"
	"rpcscale/internal/sim"
	"rpcscale/internal/workload"
)

// goldenWorld builds a 400-method catalog/topology pair plus report
// options with their own Monarch DB and generator. A world renders one
// report: the generator-driven figures (18, 19, co-location) consume RNG
// state and write to the DB, so a second report would see different state.
func goldenWorld(t *testing.T) (*fleet.Catalog, *sim.Topology, ReportOptions) {
	t.Helper()
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 400, Clusters: len(topo.Clusters), Seed: 9})
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

// sha256Hex returns the hex SHA-256 of a report.
func sha256Hex(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// Pins of the streaming report at DefaultRun with goldenWorld's options,
// and at TestStreamReportShardDeterminism's configuration per shard
// count. Each was computed at commit 3cbc8f4, where the materialized path
// (workload.Generate into FullReport, since deleted) rendered the same
// bytes; the digests are now the reference the streaming path is held to.
const defaultRunReportSHA256 = "d8192fa5b0fae656adca8b485514d4ae85f9acee451c0feeb8ae0ed5e7413276"

var shardReportSHA256 = map[int]string{
	1: "57e26a62474cf61034a58745a514af956b27cb48caf47d69fbb4d6ab360eb343",
	4: "7f29644e3eceee7b50bdeb529272d0d7b8743fa9b031d431d4bb95075dad68b4",
	8: "8c814b76b04631408f85f911db03218891cc34a141abeda0157d727b94bfe47e",
}

// The tentpole guarantee: the streaming report — per-shard accumulators
// merged in shard order, no span retained — renders the bytes the
// materialized path rendered at the default run configuration's seed.
func TestStreamReportMatchesFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report golden comparison is slow")
	}
	cat, topo, opts := goldenWorld(t)
	stream := StreamReport(context.Background(), cat, topo, workload.DefaultRun(), opts)
	if got := sha256Hex(stream); got != defaultRunReportSHA256 {
		t.Fatalf("report SHA-256 = %s, want %s", got, defaultRunReportSHA256)
	}
	if !strings.Contains(stream, "Fig.23") || !strings.Contains(stream, "Fig.2 anchors") {
		t.Fatal("golden report is missing expected figures")
	}
}

// For every shard count the streaming path must be (a) reproducible and
// (b) the pinned report for that shard count — the merge is a
// deterministic fold over shard-index order, never over goroutine
// completion order.
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
		if got, want := sha256Hex(first), shardReportSHA256[shards]; got != want {
			t.Fatalf("shards=%d: report SHA-256 = %s, want %s", shards, got, want)
		}
	}
}
