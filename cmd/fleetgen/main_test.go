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
// reappears after its group has ended, and every generated span is
// written exactly once.
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
	written := make(map[id]bool)
	ended := make(map[trace.TraceID]bool)
	var open trace.TraceID
	var n uint64
	err = trace.ScanSpans(&dump, func(s *trace.Span) error {
		n++
		if n > 1 && s.TraceID != open {
			ended[open] = true
		}
		if ended[s.TraceID] {
			t.Fatalf("record %d: trace %x reappears after its group ended", n, s.TraceID)
		}
		open = s.TraceID
		k := id{s.TraceID, s.SpanID}
		if written[k] {
			t.Fatalf("record %d: span %x/%x written twice", n, s.TraceID, s.SpanID)
		}
		written[k] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != tot.spans {
		t.Fatalf("read %d records, generate reported %d", n, tot.spans)
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
		if !written[id{s.TraceID, s.SpanID}] {
			t.Fatalf("generated span %x/%x (%s) is not in the dump", s.TraceID, s.SpanID, s.Method)
		}
	}
}
