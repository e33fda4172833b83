package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// dumpReportSHA256 pins the report of the dump path — the one route to
// Figs. 4/5 and Fig. G that bench/golden/seed1.sha256 does not reach. It
// was computed at commit 51ae67f, the last one whose loader took the shape
// samples from a separate primary-parent tree builder, so a match proves
// the shapes read off trace.Graph's spanning tree are the same ones.
const dumpReportSHA256 = "c4d6e0a8ab61a340d51d9661a6c174c87d9c37cfb86789bc61cf2ec489ea0536"

// TestDumpReportUnchanged writes a seeded fan-in + cache motif run as a
// span dump, loads it back and renders it.
func TestDumpReportUnchanged(t *testing.T) {
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})
	packs, err := fleet.ParseMotifs("fanin,cache")
	if err != nil {
		t.Fatal(err)
	}
	fleet.ApplyMotifs(cat, packs, 9)
	ds := workload.Generate(context.Background(), cat, topo, workload.RunConfig{
		Seed: 5, MethodSamples: 40, StudiedSamples: 300,
		VolumeRoots: 6000, Trees: 100, MaxDepth: 6, TreeBudget: 600, Shards: 4,
	})
	var spans []*trace.Span
	for _, name := range sortedKeys(ds.MethodSpans) {
		spans = append(spans, ds.MethodSpans[name]...)
	}
	spans = append(spans, ds.VolumeSpans...)
	spans = append(spans, ds.TreeSpans...)

	var dump bytes.Buffer
	if err := trace.WriteSpans(&dump, spans); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadDataset(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.GraphStats) == 0 || len(loaded.DescendantsByMethod) == 0 {
		t.Fatal("dump reconstructed no call graphs")
	}
	sum := sha256.Sum256([]byte(FullReport(loaded, ReportOptions{})))
	if got := hex.EncodeToString(sum[:]); got != dumpReportSHA256 {
		t.Fatalf("dump report SHA-256 = %s, want %s", got, dumpReportSHA256)
	}
}

// TestFullReportDoesNotRetainDataset: rendering a dataset must not keep it
// reachable once the caller lets go of it.
func TestFullReportDoesNotRetainDataset(t *testing.T) {
	collected := make(chan struct{})
	func() {
		topo := sim.NewTopology(sim.DefaultTopology())
		cat := fleet.New(fleet.Config{Methods: 60, Clusters: len(topo.Clusters), Seed: 3})
		ds := workload.Generate(context.Background(), cat, topo, workload.RunConfig{
			Seed: 3, MethodSamples: 5, StudiedSamples: 20,
			VolumeRoots: 200, Trees: 5, MaxDepth: 4, TreeBudget: 100,
		})
		runtime.SetFinalizer(ds, func(*workload.Dataset) { close(collected) })
		if FullReport(ds, ReportOptions{}) == "" {
			t.Fatal("empty report")
		}
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond): // finalizers run on their own goroutine
		}
	}
	t.Fatal("dataset still reachable after FullReport returned")
}
