package workload

import (
	"fmt"
	"io"

	"rpcscale/internal/gwp"
	"rpcscale/internal/trace"
)

// Span IDs carry the generation shard that minted them in their top 16
// bits (shardIDBase), which is how a replay hands each span back to the
// sink of the shard that produced it (ShardOf). A replay builds one sink
// per shard index up to the largest it sees, so the index is capped.
const (
	shardShift = 48
	maxShards  = 1 << 12
)

// shardIDBase is the ID namespace of a generation shard.
func shardIDBase(shard int) uint64 { return uint64(shard) << shardShift }

// ShardOf returns the generation shard that minted a span ID. IDs whose
// top bits hold an index at or past the 4096-shard cap (a foreign tool's)
// belong to shard 0.
func ShardOf(id trace.SpanID) int {
	if sh := int(uint64(id) >> shardShift); sh < maxShards {
		return sh
	}
	return 0
}

// Replay is the dump-side twin of Run: it folds a JSON-lines span dump
// (cmd/fleetgen's output) into per-shard sinks and profilers as it reads
// it, so a dump of any size replays at memory bounded by the sinks' state
// and its largest trace. factory is called for shards 0, 1, ... in order
// as the dump first reaches each index (ShardOf); as after Run, the
// caller merges its sinks in shard-index order, and the returned profile
// merges the shards' profilers in that order.
//
// Every span goes to its shard's MethodSpan and VolumeSpan (a dump does
// not tell stratified from volume samples) and to its shard's profiler.
// The spans of one trace must be adjacent, as cmd/fleetgen writes them:
// whenever the trace ID changes, the closed group's call graphs are
// rebuilt (trace.BuildGraphs), and each graph of two or more spans feeds
// GraphShape to its root's shard and TreeSpan and TreeShape to each of
// its spans' shards. Isolated spans are stratified or volume samples, not
// one-node graphs, and feed no shape; a trace split across the dump is
// rebuilt as fragments. A dump has no exogenous state, so ExoSample is
// never called.
//
// The result does not depend on how the shards' trace groups interleave.
// A dump with no spans is an error.
func Replay(r io.Reader, factory func(shard int) SpanSink) (*gwp.Snapshot, error) {
	rp := replayer{factory: factory}
	if err := trace.ScanSpans(r, rp.span); err != nil {
		return nil, err
	}
	if len(rp.sinks) == 0 {
		return nil, fmt.Errorf("workload: span dump is empty")
	}
	return rp.close(), nil
}

// ReplaySpans is Replay over spans already in memory, such as a live
// collector's; no spans replay to an empty profile.
func ReplaySpans(spans []*trace.Span, factory func(shard int) SpanSink) *gwp.Snapshot {
	rp := replayer{factory: factory}
	for _, s := range spans {
		rp.span(s)
	}
	return rp.close()
}

type replayer struct {
	factory func(shard int) SpanSink
	sinks   []SpanSink
	profs   []*gwp.Profiler
	group   []*trace.Span // the open trace's spans
}

func (rp *replayer) span(s *trace.Span) error {
	if len(rp.group) > 0 && s.TraceID != rp.group[0].TraceID {
		rp.flush()
	}
	sh := ShardOf(s.SpanID)
	for len(rp.sinks) <= sh {
		rp.sinks = append(rp.sinks, rp.factory(len(rp.sinks)))
		rp.profs = append(rp.profs, gwp.New())
	}
	rp.sinks[sh].MethodSpan(s)
	rp.sinks[sh].VolumeSpan(s)
	s.RecordCycles(rp.profs[sh])
	rp.group = append(rp.group, s)
	return nil
}

// flush rebuilds the closed trace's call graphs and feeds their shapes.
func (rp *replayer) flush() {
	for _, g := range trace.BuildGraphs(rp.group) {
		if g.Spans < 2 {
			continue
		}
		rp.sinks[ShardOf(g.Root.Span.SpanID)].GraphShape(g.Stat())
		g.Walk(func(n *trace.GraphNode, ancestors int) {
			k := rp.sinks[ShardOf(n.Span.SpanID)]
			k.TreeSpan(n.Span)
			k.TreeShape(n.Span.Method, n.Descendants, ancestors)
		})
	}
	rp.group = rp.group[:0]
}

func (rp *replayer) close() *gwp.Snapshot {
	rp.flush()
	prof := gwp.New()
	for _, p := range rp.profs {
		prof.Merge(p)
	}
	return prof.Snapshot()
}
