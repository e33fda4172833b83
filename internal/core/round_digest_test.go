package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// Pins of the streaming round below: the SHA-256 of its report and the
// spans it generates, both computed at commit a4c3952. Its stratified and
// volume samples do not materialize their nested calls, the generator
// path the dump test does not take; a change to any bit drawn there
// shows up here.
const (
	streamRoundSHA256 = "eed095031727bb29d50c215ffd4f7ded0354a5d28253a99dd1e7e91426eb54b3"
	streamRoundSpans  = 5567
)

// spanCounter counts the spans a shard emits on their way into its sink.
type spanCounter struct {
	workload.SpanSink
	spans int
}

func (c *spanCounter) MethodSpan(s *trace.Span) { c.spans++; c.SpanSink.MethodSpan(s) }
func (c *spanCounter) VolumeSpan(s *trace.Span) { c.spans++; c.SpanSink.VolumeSpan(s) }
func (c *spanCounter) TreeSpan(s *trace.Span)   { c.spans++; c.SpanSink.TreeSpan(s) }

// TestStreamRoundDigestUnchanged runs the benchmark's quick-size
// analysis round: a 200-method catalog on the benchmark's topology,
// streamed through per-shard report sinks merged in shard order.
func TestStreamRoundDigestUnchanged(t *testing.T) {
	topo := sim.NewTopology(sim.TopologyConfig{Regions: 6, DatacentersPer: 2, ClustersPerDC: 3, MachinesPerCluster: 16, Seed: 1})
	cat := fleet.New(fleet.Config{Methods: 200, Clusters: len(topo.Clusters), Seed: 1})
	cfg := workload.RunConfig{Seed: 1, MethodSamples: 2, StudiedSamples: 10, VolumeRoots: 2000, Trees: 5}
	var sinks []*ReportSink
	var counters []*spanCounter
	prof, _ := workload.Run(context.Background(), cat, topo, cfg, func(int) workload.SpanSink {
		k := NewReportSink()
		c := &spanCounter{SpanSink: k}
		sinks = append(sinks, k)
		counters = append(counters, c)
		return c
	})
	root := NewReportSink()
	spans := 0
	for i, k := range sinks {
		root.Merge(k)
		spans += counters[i].spans
	}
	sum := sha256.Sum256([]byte(ReportFromSink(root, prof, ReportOptions{})))
	got := hex.EncodeToString(sum[:])
	if got != streamRoundSHA256 || spans != streamRoundSpans {
		t.Fatalf("round: %d spans, report SHA-256 %s; want %d spans, %s", spans, got, streamRoundSpans, streamRoundSHA256)
	}
}

// TestMergeHandsOverShard: Merge hands a shard's state to the root. Feeding
// the merged shard afterwards leaves the root equal, field for field, to a
// root that merged an identical shard nobody fed, and ShardSinks.Merged
// leaves every shard an empty sink.
func TestMergeHandsOverShard(t *testing.T) {
	topo := sim.NewTopology(sim.TopologyConfig{Regions: 2, DatacentersPer: 1, ClustersPerDC: 2, MachinesPerCluster: 4, Seed: 1})
	cat := fleet.New(fleet.Config{Methods: 60, Clusters: len(topo.Clusters), Seed: 1})
	cfg := workload.RunConfig{Seed: 3, Shards: 2, MethodSamples: 3, StudiedSamples: 10, VolumeRoots: 500, Trees: 5, RetainSpans: true}
	run := func() (ShardSinks, *workload.Dataset) {
		var sinks ShardSinks
		_, ds := workload.Run(context.Background(), cat, topo, cfg, sinks.New)
		return sinks, ds
	}
	fed, ds := run()
	kept, _ := run()
	root, want := NewReportSink(), NewReportSink()
	root.Merge(fed[0])
	want.Merge(kept[0])

	shard := fed[0]
	var spans []*trace.Span
	for _, m := range ds.MethodSpans {
		spans = append(spans, m...)
	}
	spans = append(append(spans, ds.VolumeSpans...), ds.TreeSpans...)
	for _, s := range spans {
		shard.MethodSpan(s)
		shard.VolumeSpan(s)
		shard.TreeSpan(s)
		shard.TreeShape(s.Method, 1, 1)
		shard.GraphShape(workload.GraphStat{Spans: 2, Depth: 1, Width: 1})
		shard.ExoSample(s.Method, s, sim.Exo{})
	}
	if !reflect.DeepEqual(root, want) {
		t.Fatal("feeding a merged shard changed the root it was merged into")
	}

	kept.Merged()
	for i, k := range kept {
		if !reflect.DeepEqual(k, NewReportSink()) {
			t.Errorf("shard %d holds state after Merged", i)
		}
	}
}

// motifReportSHA256 pins the report of a run with every motif pack on,
// the only route through the sidecar and replica hops; computed at
// commit a4c3952.
const motifReportSHA256 = "7ab9e6dacd073d4ccbb94f99aba4fb7ef239d047746ac6ecd77a72734f9f32d2"

// TestMotifReportDigestUnchanged streams an all-motif run and checks the
// report against the pin.
func TestMotifReportDigestUnchanged(t *testing.T) {
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})
	packs, err := fleet.ParseMotifs("all")
	if err != nil {
		t.Fatal(err)
	}
	fleet.ApplyMotifs(cat, packs, 9)
	cfg := workload.RunConfig{Seed: 5, MethodSamples: 20, StudiedSamples: 100, VolumeRoots: 4000, Trees: 60, MaxDepth: 6, TreeBudget: 600, Shards: 4}
	sum := sha256.Sum256([]byte(StreamReport(context.Background(), cat, topo, cfg, ReportOptions{})))
	if got := hex.EncodeToString(sum[:]); got != motifReportSHA256 {
		t.Fatalf("motif report SHA-256 = %s, want %s", got, motifReportSHA256)
	}
}
