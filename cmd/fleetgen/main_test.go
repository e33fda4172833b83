package main

import (
	"bytes"
	"context"
	"testing"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// TestDumpTracesAdjacent: at 8 shards with every motif pack, no trace ID
// reappears after its group has ended, every generated span is written
// exactly once, and the fan-in edges and motif nodes generate reports are
// the dump's: its linked parents, and its motif-tagged tree spans that
// are not hedged duplicates.
func TestDumpTracesAdjacent(t *testing.T) {
	topo := sim.NewTopology(sim.DefaultTopology())
	newCat := func() *fleet.Catalog {
		cat := fleet.New(fleet.Config{Methods: 200, Clusters: len(topo.Clusters), Seed: 4})
		packs, err := fleet.ParseMotifs("all")
		if err != nil {
			t.Fatal(err)
		}
		fleet.ApplyMotifs(cat, packs, 4)
		return cat
	}
	cfg := workload.RunConfig{
		Seed: 4, MethodSamples: 8, StudiedSamples: 16,
		VolumeRoots: 3000, Trees: 120, MaxDepth: 6, TreeBudget: 400, Shards: 8,
	}
	var dump bytes.Buffer
	tot, err := generate(context.Background(), newCat(), topo, cfg, &dump)
	if err != nil {
		t.Fatal(err)
	}
	if tot.fanIn == 0 || tot.motif == 0 {
		t.Fatalf("motif run wrote no DAG structure: %+v", tot)
	}

	type id struct {
		t trace.TraceID
		s trace.SpanID
	}
	written := make(map[id]trace.Motif)
	ended := make(map[trace.TraceID]bool)
	var open trace.TraceID
	var n, linked uint64
	err = trace.ScanSpans(&dump, func(s *trace.Span) error {
		n++
		linked += uint64(len(s.LinkedParents))
		if n > 1 && s.TraceID != open {
			ended[open] = true
		}
		if ended[s.TraceID] {
			t.Fatalf("record %d: trace %x reappears after its group ended", n, s.TraceID)
		}
		open = s.TraceID
		k := id{s.TraceID, s.SpanID}
		if _, dup := written[k]; dup {
			t.Fatalf("record %d: span %x/%x written twice", n, s.TraceID, s.SpanID)
		}
		written[k] = s.Motif
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != tot.spans {
		t.Fatalf("read %d records, generate reported %d", n, tot.spans)
	}
	if linked != tot.fanIn {
		t.Fatalf("dump holds %d linked parents, generate reported %d fan-in edges", linked, tot.fanIn)
	}

	cfg.RetainSpans = true
	_, ds := workload.Run(context.Background(), newCat(), topo, cfg, nil)
	generated := append(ds.VolumeSpans, ds.TreeSpans...)
	for _, spans := range ds.MethodSpans {
		generated = append(generated, spans...)
	}
	if len(generated) != len(written) {
		t.Fatalf("wrote %d spans, generated %d", len(written), len(generated))
	}
	for _, s := range generated {
		if _, ok := written[id{s.TraceID, s.SpanID}]; !ok {
			t.Fatalf("generated span %x/%x (%s) is not in the dump", s.TraceID, s.SpanID, s.Method)
		}
	}
	// A tree's hedged-cancellation duplicates copy their original's motif
	// tag but are not nodes of its graph.
	var treeMotifs uint64
	for _, s := range ds.TreeSpans {
		if written[id{s.TraceID, s.SpanID}] != trace.MotifNone && !s.Hedged {
			treeMotifs++
		}
	}
	if treeMotifs != tot.motif {
		t.Fatalf("dump holds %d motif-tagged tree spans, generate reported %d motif nodes", treeMotifs, tot.motif)
	}
}
