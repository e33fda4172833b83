package workload

import (
	"fmt"
	"io"

	"rpcscale/internal/gwp"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// DatasetFromSpans rebuilds an analyzable Dataset from a flat span dump
// (e.g., one written by cmd/fleetgen). The reconstruction is lossy
// relative to a live generation run:
//
//   - every span is used both for per-method distributions and for the
//     volume mix (a dump does not distinguish stratified from volume
//     sampling);
//   - descendant/ancestor samples come from reconstructed call graphs, so
//     methods that only appear as isolated spans have sparse shape data;
//   - exogenous observations are absent, so Figs. 17/18 are unavailable.
//
// GWP category attribution survives when spans carry the per-category
// cycle split (cpu_by_cat in the dump schema); dumps written before the
// split fall back to attributing all cycles to Application, in which
// case Fig. 20 reports ~0 tax.
//
// Analyses that need the missing parts detect the absence and skip.
func DatasetFromSpans(spans []*trace.Span) *Dataset {
	ds := &Dataset{
		MethodSpans:         make(map[string][]*trace.Span),
		VolumeSpans:         spans,
		DescendantsByMethod: make(map[string]*stats.Sample),
		AncestorsByMethod:   make(map[string]*stats.Sample),
		ExoByMethod:         make(map[string][]ExoObservation),
	}
	prof := gwp.New()
	for _, s := range spans {
		ds.MethodSpans[s.Method] = append(ds.MethodSpans[s.Method], s)
		s.RecordCycles(prof)
	}
	ds.Profile = prof.Snapshot()
	// Rebuild the call graphs (primary spanning tree plus linked-parent
	// in-edges). Each multi-span graph yields its whole-graph summary and,
	// from its spanning tree, the tree spans and per-method shape samples.
	// Isolated spans are stratified/volume samples in disguise, not
	// one-node graphs: they carry no shape information and would flatten
	// the size CCDF, so they are excluded.
	for _, gr := range trace.BuildGraphs(spans) {
		if gr.Spans < 2 {
			continue
		}
		ds.GraphStats = append(ds.GraphStats, GraphStatOf(gr))
		gr.Walk(func(n *trace.GraphNode, ancestors int) {
			ds.TreeSpans = append(ds.TreeSpans, n.Span)
			addShape(ds.DescendantsByMethod, ds.AncestorsByMethod, n.Span.Method, n.Descendants, ancestors)
		})
	}
	return ds
}

// LoadDataset reads a JSON-lines span dump and rebuilds a Dataset.
func LoadDataset(r io.Reader) (*Dataset, error) {
	spans, err := trace.ReadSpans(r)
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("workload: span dump is empty")
	}
	return DatasetFromSpans(spans), nil
}
