package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

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

// dumpSpans is TestDumpReportUnchanged's seeded fan-in + cache motif run
// at four shards, as the span list of its dump: stratified samples by
// method, then the volume mix, then the materialized trees.
func dumpSpans(t *testing.T) []*trace.Span {
	t.Helper()
	topo := sim.NewTopology(sim.DefaultTopology())
	cat := fleet.New(fleet.Config{Methods: 250, Clusters: len(topo.Clusters), Seed: 9})
	packs, err := fleet.ParseMotifs("fanin,cache")
	if err != nil {
		t.Fatal(err)
	}
	fleet.ApplyMotifs(cat, packs, 9)
	_, ds := workload.Run(context.Background(), cat, topo, workload.RunConfig{
		Seed: 5, MethodSamples: 40, StudiedSamples: 300,
		VolumeRoots: 6000, Trees: 100, MaxDepth: 6, TreeBudget: 600, Shards: 4,
		RetainSpans: true,
	}, nil)
	var spans []*trace.Span
	for _, name := range sortedKeys(ds.MethodSpans) {
		spans = append(spans, ds.MethodSpans[name]...)
	}
	spans = append(spans, ds.VolumeSpans...)
	return append(spans, ds.TreeSpans...)
}

// replayDigest writes spans as a dump, replays it the way rpcanalyze -in
// does and returns the report's SHA-256.
func replayDigest(t *testing.T, spans []*trace.Span) string {
	t.Helper()
	var dump bytes.Buffer
	if err := trace.WriteSpans(&dump, spans); err != nil {
		t.Fatal(err)
	}
	var sinks ShardSinks
	prof, err := workload.Replay(&dump, sinks.New)
	if err != nil {
		t.Fatal(err)
	}
	sink := sinks.Merged()
	if sink.graph.graphs == 0 || len(sink.desc) == 0 {
		t.Fatal("dump reconstructed no call graphs")
	}
	sum := sha256.Sum256([]byte(ReportFromSink(sink, prof, ReportOptions{})))
	return hex.EncodeToString(sum[:])
}

// TestDumpReportUnchanged writes a seeded fan-in + cache motif run as a
// span dump, replays it and renders it.
func TestDumpReportUnchanged(t *testing.T) {
	if got := replayDigest(t, dumpSpans(t)); got != dumpReportSHA256 {
		t.Fatalf("dump report SHA-256 = %s, want %s", got, dumpReportSHA256)
	}
}

// TestDumpInterleavedShards: a dump's shards may write their trace groups
// in any interleaving (cmd/fleetgen's do); round-robin the four shards'
// groups into one dump and the report must not change.
func TestDumpInterleavedShards(t *testing.T) {
	var groups [][][]*trace.Span // per shard, its trace groups in order
	for _, s := range dumpSpans(t) {
		sh := workload.ShardOf(s.SpanID)
		for len(groups) <= sh {
			groups = append(groups, nil)
		}
		g := groups[sh]
		if n := len(g); n > 0 && g[n-1][0].TraceID == s.TraceID {
			g[n-1] = append(g[n-1], s)
		} else {
			groups[sh] = append(g, []*trace.Span{s})
		}
	}
	if len(groups) != 4 {
		t.Fatalf("dump spans %d shards, want 4", len(groups))
	}
	var spans []*trace.Span
	for i := 0; ; i++ {
		took := false
		for _, g := range groups {
			if i < len(g) {
				spans = append(spans, g[i]...)
				took = true
			}
		}
		if !took {
			break
		}
	}
	if got := replayDigest(t, spans); got != dumpReportSHA256 {
		t.Fatalf("interleaved dump report SHA-256 = %s, want %s", got, dumpReportSHA256)
	}
}

// TestForeignShardIndexAllocation: a span ID whose top bits read as shard
// 4095 makes a replay index its sinks up to 4095 but build only the two the
// dump names. The replay allocates 1.2 MB, most of it the dump reader's
// 1 MiB buffer.
func TestForeignShardIndexAllocation(t *testing.T) {
	spans := []*trace.Span{
		{TraceID: 1, SpanID: 1, Method: "a/M", Service: "a"},
		{TraceID: 2, SpanID: trace.SpanID(4095<<48 | 1), Method: "b/M", Service: "b"},
	}
	var dump bytes.Buffer
	if err := trace.WriteSpans(&dump, spans); err != nil {
		t.Fatal(err)
	}
	const budget = 2 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var sinks ShardSinks
	if _, err := workload.Replay(&dump, sinks.New); err != nil {
		t.Fatal(err)
	}
	built := 0
	for _, k := range sinks {
		if k != nil {
			built++
		}
	}
	if len(sinks) != 4096 || built != 2 {
		t.Fatalf("replay built %d sinks over %d indices, want 2 over 4096", built, len(sinks))
	}
	sink := sinks.Merged()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("replay allocated %d B, want < %d", got, budget)
	}
	if sink.errCalls != 2 {
		t.Errorf("replay counted %d spans, want 2", sink.errCalls)
	}
}
