package workload

import (
	"bytes"
	"runtime"
	"testing"

	"rpcscale/internal/sim"
	"rpcscale/internal/trace"
)

// countSink counts what a replay hands one shard.
type countSink struct{ method, volume, tree, shapes, graphs, exo int }

func (k *countSink) MethodSpan(*trace.Span)                 { k.method++ }
func (k *countSink) VolumeSpan(*trace.Span)                 { k.volume++ }
func (k *countSink) TreeSpan(*trace.Span)                   { k.tree++ }
func (k *countSink) TreeShape(string, int, int)             { k.shapes++ }
func (k *countSink) GraphShape(GraphStat)                   { k.graphs++ }
func (k *countSink) ExoSample(string, *trace.Span, sim.Exo) { k.exo++ }

// dumpOf writes spans as a JSON-lines dump.
func dumpOf(tb testing.TB, spans []*trace.Span) []byte {
	var b bytes.Buffer
	if err := trace.WriteSpans(&b, spans); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzScanReplay: a span dump is outside input. Whatever its bytes,
// trace.ScanSpans either fails or yields spans that ReplaySpans folds
// without a panic: one sink for each shard index the dump names, each span
// to its shard's MethodSpan and VolumeSpan once, no more tree spans than
// spans, and at most 256 B allocated per dump byte over a fixed 128 KiB
// (the shard-indexed tables a foreign shard index 4095 grows take 98 KiB).
// The seeds are the malformed dumps replay has been hardened against: a
// repeated span ID, a parent cycle, a 10^5-deep chain, and span IDs whose
// top bits hold a foreign shard index.
func FuzzScanReplay(f *testing.F) {
	mk := func(id, parent trace.SpanID) *trace.Span {
		return &trace.Span{TraceID: 1, SpanID: id, ParentID: parent, Method: "svc/M", Service: "svc", CPUCycles: 1}
	}
	f.Add(dumpOf(f, []*trace.Span{mk(1, 0), mk(2, 1), mk(2, 3), mk(3, 2)}))
	f.Add(dumpOf(f, []*trace.Span{mk(1, 2), mk(2, 1)}))
	chain := make([]*trace.Span, 100000)
	for i := range chain {
		chain[i] = mk(trace.SpanID(i+1), trace.SpanID(i))
	}
	f.Add(dumpOf(f, chain))
	f.Add(dumpOf(f, []*trace.Span{mk(1, 0), mk((maxShards-1)<<shardShift|2, 1), mk(1<<63|3, 1)}))
	f.Fuzz(func(t *testing.T, dump []byte) {
		var spans []*trace.Span
		if trace.ScanSpans(bytes.NewReader(dump), func(s *trace.Span) error {
			spans = append(spans, s)
			return nil
		}) != nil {
			return
		}
		sinks := make(map[int]*countSink)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ReplaySpans(spans, func(shard int) SpanSink {
			if sinks[shard] != nil {
				t.Fatalf("factory called twice for shard %d", shard)
			}
			k := new(countSink)
			sinks[shard] = k
			return k
		})
		runtime.ReadMemStats(&after)
		if limit := 128<<10 + 256*uint64(len(dump)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("replaying %d spans from %d bytes allocated %d B, over %d", len(spans), len(dump), after.TotalAlloc-before.TotalAlloc, limit)
		}
		for _, s := range spans {
			if sinks[ShardOf(s.SpanID)] == nil {
				t.Fatalf("no sink for shard %d", ShardOf(s.SpanID))
			}
		}
		var sum countSink
		for _, k := range sinks {
			sum.method, sum.volume, sum.tree, sum.exo = sum.method+k.method, sum.volume+k.volume, sum.tree+k.tree, sum.exo+k.exo
		}
		if sum.method != len(spans) || sum.volume != len(spans) || sum.tree > len(spans) || sum.exo != 0 {
			t.Fatalf("%d spans replayed as %+v", len(spans), sum)
		}
	})
}
