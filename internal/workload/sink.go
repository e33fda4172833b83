package workload

import (
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// SpanSink receives a generation shard's output as it is produced,
// instead of buffering it into a Dataset first. This is the streaming
// analog of the paper's pipelines: Dapper aggregates its samples in
// flight rather than materializing them, so the observation plane runs at
// bounded memory no matter the stream volume.
//
// Run gives each shard its own sink (built by a per-shard factory), calls
// it from that shard's goroutine only, and leaves merging to the caller,
// who folds the shard sinks together in shard-index order. Because each
// shard's stream depends only on its own derived seed and the merge order
// is fixed, any sink whose Merge is a deterministic fold produces results
// that are reproducible for a fixed (Seed, Shards) pair — and identical
// to feeding the materialized Dataset through the same accumulator.
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

// datasetSink buffers one shard's stream into Dataset-shaped state; it is
// how Generate retains full spans on top of Run.
type datasetSink struct {
	methodSpans map[string][]*trace.Span
	volume      []*trace.Span
	treeSpans   []*trace.Span
	desc        map[string]*stats.Sample
	anc         map[string]*stats.Sample
	exo         map[string][]ExoObservation
	graphs      []GraphStat
}

func newDatasetSink() *datasetSink {
	return &datasetSink{
		methodSpans: make(map[string][]*trace.Span),
		desc:        make(map[string]*stats.Sample),
		anc:         make(map[string]*stats.Sample),
		exo:         make(map[string][]ExoObservation),
	}
}

func (d *datasetSink) MethodSpan(s *trace.Span) {
	//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
	d.methodSpans[s.Method] = append(d.methodSpans[s.Method], s)
}

//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
func (d *datasetSink) VolumeSpan(s *trace.Span) { d.volume = append(d.volume, s) }

//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
func (d *datasetSink) TreeSpan(s *trace.Span) { d.treeSpans = append(d.treeSpans, s) }

func (d *datasetSink) TreeShape(method string, descendants, ancestors int) {
	addShape(d.desc, d.anc, method, descendants, ancestors)
}

// addShape appends one call's (descendants, ancestors) counts to its
// method's Figs. 4/5 samples.
func addShape(desc, anc map[string]*stats.Sample, method string, descendants, ancestors int) {
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

func (d *datasetSink) GraphShape(g GraphStat) { d.graphs = append(d.graphs, g) }

func (d *datasetSink) ExoSample(method string, s *trace.Span, exo sim.Exo) {
	//rpclint:ignore sinkobserve datasetSink is the retention sink: buffering spans into the Dataset is its contract
	d.exo[method] = append(d.exo[method], ExoObservation{Span: s, Exo: exo})
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

// nopSink discards the stream (a Run with neither sinks nor retention
// still exercises the generator and produces a CPU profile).
type nopSink struct{}

func (nopSink) MethodSpan(*trace.Span)                 {}
func (nopSink) VolumeSpan(*trace.Span)                 {}
func (nopSink) TreeSpan(*trace.Span)                   {}
func (nopSink) TreeShape(string, int, int)             {}
func (nopSink) GraphShape(GraphStat)                   {}
func (nopSink) ExoSample(string, *trace.Span, sim.Exo) {}
