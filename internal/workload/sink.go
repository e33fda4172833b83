package workload

import (
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// SpanSink receives a generation shard's output as it is produced. This
// is the streaming analog of the paper's pipelines: Dapper aggregates its
// samples in flight rather than materializing them, so the observation
// plane runs at bounded memory no matter the stream volume.
//
// Run gives each shard its own sink (built by a per-shard factory), calls
// it from that shard's goroutine only, and leaves merging to the caller,
// who folds the shard sinks together in shard-index order. Because each
// shard's stream depends only on its own derived seed and the merge order
// is fixed, any sink whose Merge is a deterministic fold produces results
// that are reproducible for a fixed (Seed, Shards) pair.
//
// Within one shard the emission order is fixed: stratified per-method
// samples first (MethodSpan, then TreeShape, then ExoSample for studied
// methods), then the volume mix (VolumeSpan, including hedged
// cancellations), then materialized trees (TreeSpan then TreeShape per
// span, in call order).
type SpanSink interface {
	// MethodSpan receives one stratified per-method sample.
	MethodSpan(s *trace.Span)
	// VolumeSpan receives one span of the popularity-weighted fleet mix.
	VolumeSpan(s *trace.Span)
	// TreeSpan receives one span of a materialized call tree.
	TreeSpan(s *trace.Span)
	// TreeShape receives the (descendants, ancestors) counts of one call
	// observation — the raw material of the Figs. 4/5 shape analysis.
	TreeShape(method string, descendants, ancestors int)
	// GraphShape receives the whole-graph summary of one root call: node
	// count, depth/width of the primary spanning tree, fan-in edges, and
	// per-motif node counts. Emitted once per stratified and materialized
	// root (volume roots are depth-truncated and carry no graph shape).
	GraphShape(g GraphStat)
	// ExoSample receives a studied-method span paired with the exogenous
	// state of its serving cluster at call time (Fig. 17/18).
	ExoSample(method string, s *trace.Span, exo sim.Exo)
}

// GraphStat is one call graph's whole-graph summary, the value
// SpanSink.GraphShape carries (trace.GraphStat; a replay reads it off the
// rebuilt graph with trace.Graph.Stat).
type GraphStat = trace.GraphStat

// datasetSink buffers one shard's spans for a Dataset; it is how Run
// retains them (RunConfig.RetainSpans) on top of the caller's sinks.
type datasetSink struct {
	methodSpans map[string][]*trace.Span
	volume      []*trace.Span
	treeSpans   []*trace.Span
}

func newDatasetSink() *datasetSink {
	return &datasetSink{methodSpans: make(map[string][]*trace.Span)}
}

func (d *datasetSink) MethodSpan(s *trace.Span) {
	//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
	d.methodSpans[s.Method] = append(d.methodSpans[s.Method], s)
}

//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
func (d *datasetSink) VolumeSpan(s *trace.Span) { d.volume = append(d.volume, s) }

//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
func (d *datasetSink) TreeSpan(s *trace.Span) { d.treeSpans = append(d.treeSpans, s) }

// A Dataset keeps spans only; shapes and exogenous samples are for the
// caller's sinks.
func (d *datasetSink) TreeShape(string, int, int)             {}
func (d *datasetSink) GraphShape(GraphStat)                   {}
func (d *datasetSink) ExoSample(string, *trace.Span, sim.Exo) {}

// AddShape appends one call's (descendants, ancestors) counts to its
// method's Figs. 4/5 samples in desc and anc.
func AddShape(desc, anc map[string]*stats.Sample, method string, descendants, ancestors int) {
	d := desc[method]
	if d == nil {
		d = stats.NewSample(0)
		desc[method] = d
	}
	d.Add(float64(descendants))
	a := anc[method]
	if a == nil {
		a = stats.NewSample(0)
		anc[method] = a
	}
	a.Add(float64(ancestors))
}

// teeSink fans one shard's stream out to several sinks in order.
type teeSink []SpanSink

func (t teeSink) MethodSpan(s *trace.Span) {
	for _, sk := range t {
		sk.MethodSpan(s)
	}
}

func (t teeSink) VolumeSpan(s *trace.Span) {
	for _, sk := range t {
		sk.VolumeSpan(s)
	}
}

func (t teeSink) TreeSpan(s *trace.Span) {
	for _, sk := range t {
		sk.TreeSpan(s)
	}
}

func (t teeSink) TreeShape(method string, descendants, ancestors int) {
	for _, sk := range t {
		sk.TreeShape(method, descendants, ancestors)
	}
}

func (t teeSink) GraphShape(g GraphStat) {
	for _, sk := range t {
		sk.GraphShape(g)
	}
}

func (t teeSink) ExoSample(method string, s *trace.Span, exo sim.Exo) {
	for _, sk := range t {
		sk.ExoSample(method, s, exo)
	}
}
