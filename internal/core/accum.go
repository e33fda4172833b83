package core

import (
	"cmp"
	"math/bits"
	"slices"

	"rpcscale/internal/fleet"
	"rpcscale/internal/sim"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
	"rpcscale/internal/workload"
)

// ReportSink is the streaming accumulator behind every figure of the
// report: a workload.SpanSink that folds each span into bounded per-figure
// state (log-bucketed histograms, integer sums, a bottom-k sketch, and
// capped studied-method retention) the moment it is produced. One sink per
// shard of a workload.Run or workload.Replay, merged in shard-index order
// (ShardSinks), yields results that are reproducible for a fixed (Seed,
// Shards) pair. Every figure is a method on the sink.
//
// A sink is not safe for concurrent use; workload.Run drives each shard's
// sink from a single goroutine, and Merge is called after all shards
// finish.
type ReportSink struct {
	methods    map[string]*methodAccum
	studiedSet map[string]bool
	studied    map[string][]*trace.Span

	vol map[string]*volAccum
	svc map[string]*svcAccum
	tax map[string]*taxAccum

	// Fleet-wide tax sums over non-error volume spans, exact nanoseconds.
	taxTot, taxWire, taxStack, taxQueue int64
	taxSpans                            int

	// Fig. 23 error accounting over all volume spans.
	errCalls, errErrs      uint64
	errCounts              [trace.NumErrorCodes]uint64
	errCycles              [trace.NumErrorCodes]float64
	wastedCycles           float64
	cancels, hedgedCancels uint64

	// §2.5 offload coverage at the report's MTU.
	offCalls, offCallsCov uint64
	offMsgs, offMsgsCov   uint64
	offBytes, offBytesCov int64

	// Fig. 21 correlation subsample: an order-independent bottom-k sketch
	// keyed by a hash of the span identity, holding (size, latency, cpu).
	corr *stats.BottomK

	// Figs. 4/5 shape samples and Fig. 17 exogenous observations.
	desc map[string]*stats.Sample
	anc  map[string]*stats.Sample
	exo  map[string][]workload.ExoObservation

	// Call-graph DAG shape state (whole-graph summaries plus the per-span
	// tier/motif census).
	graph graphAccum
}

// graphAccum is the DAG-shape accumulator behind the call-graph figures:
// whole-graph summaries fed by GraphShape (size histogram, depth-by-width
// joint counts, fan-in totals, per-motif node counts) plus a per-span
// tier/motif census folded from every span channel. All state is integer
// counters or exact-merge histograms, so accumulation is invariant to
// shard routing and fold order — the property that keeps streaming and
// materialized reports byte-identical.
type graphAccum struct {
	graphs      uint64
	fanInGraphs uint64 // graphs with at least one fan-in edge
	fanInEdges  uint64
	sharedNodes uint64
	size        stats.Hist        // graph node counts (the size CCDF)
	depthWidth  map[[2]int]uint64 // (depth, log2 width bucket) -> graphs
	motifNodes  [trace.NumMotifs]uint64

	censusSpans uint64
	tierSpans   [trace.NumTiers]uint64
	motifSpans  [trace.NumMotifs]uint64
}

func newGraphAccum() graphAccum {
	return graphAccum{
		size:       stats.SizeShape.Hist(),
		depthWidth: make(map[[2]int]uint64),
	}
}

// censusSpan folds one span into the tier/motif census.
func (a *graphAccum) censusSpan(s *trace.Span) {
	a.censusSpans++
	if int(s.Tier) < trace.NumTiers {
		a.tierSpans[s.Tier]++
	}
	if int(s.Motif) < trace.NumMotifs {
		a.motifSpans[s.Motif]++
	}
}

func (a *graphAccum) merge(o *graphAccum) {
	a.graphs += o.graphs
	a.fanInGraphs += o.fanInGraphs
	a.fanInEdges += o.fanInEdges
	a.sharedNodes += o.sharedNodes
	a.size.Merge(&o.size)
	for k, v := range o.depthWidth {
		a.depthWidth[k] += v
	}
	for i := range a.motifNodes {
		a.motifNodes[i] += o.motifNodes[i]
	}
	a.censusSpans += o.censusSpans
	for i := range a.tierSpans {
		a.tierSpans[i] += o.tierSpans[i]
	}
	for i := range a.motifSpans {
		a.motifSpans[i] += o.motifSpans[i]
	}
}

// reportMTU is the single-MTU accelerator size the report quotes (§2.5).
const reportMTU = 1500

// corrSubsample bounds the Fig. 21 correlation state. 16Ki points keep
// Spearman estimates within a couple hundredths of the full-stream value;
// the sketch's buffer grows with the spans a shard offers and stops at 2k
// items (1.57 MB) at any volume.
const corrSubsample = 1 << 14

// The shapes of the per-method histograms beyond stats.LatencyShape (ns)
// and stats.SizeShape (bytes), each built once and shared by every sink.
var (
	ratioShape    = stats.NewShape(1e-4, 1.1) // response/request and cycles
	taxRatioShape = stats.NewShape(1e-6, 1.1)
)

// methodAccum is the per-method stratified-sample state: one histogram
// per per-method figure, held by value so a method's state is one
// allocation. Each histogram's count doubles as that figure's call count
// (a value is counted iff it is added).
type methodAccum struct {
	spans uint64 // all stratified samples, errors included (the >=100 gate)

	lat      stats.Hist // Fig. 2 completion time, ns
	req      stats.Hist // Fig. 6a request bytes
	resp     stats.Hist // Fig. 6b response bytes
	ratio    stats.Hist // Fig. 7 response/request
	cpu      stats.Hist // Fig. 21 cycles
	taxRatio stats.Hist // Fig. 11 tax ratio
	wireNet  stats.Hist // Fig. 12 wire+stack, ns
	queue    stats.Hist // Fig. 13 queuing, ns
}

func newMethodAccum() *methodAccum {
	return &methodAccum{
		lat:      stats.LatencyShape.Hist(),
		req:      stats.SizeShape.Hist(),
		resp:     stats.SizeShape.Hist(),
		ratio:    ratioShape.Hist(),
		cpu:      ratioShape.Hist(),
		taxRatio: taxRatioShape.Hist(),
		wireNet:  stats.LatencyShape.Hist(),
		queue:    stats.LatencyShape.Hist(),
	}
}

func (a *methodAccum) merge(o *methodAccum) {
	a.spans += o.spans
	a.lat.Merge(&o.lat)
	a.req.Merge(&o.req)
	a.resp.Merge(&o.resp)
	a.ratio.Merge(&o.ratio)
	a.cpu.Merge(&o.cpu)
	a.taxRatio.Merge(&o.taxRatio)
	a.wireNet.Merge(&o.wireNet)
	a.queue.Merge(&o.queue)
}

// volAccum is the per-method volume-mix state (Fig. 3 popularity and the
// §5.2 optimization-coverage table). Counts and nanosecond sums are
// integers, so accumulation order cannot perturb them.
type volAccum struct {
	calls  uint64
	timeNs int64
}

// svcAccum is the per-service volume-mix state (Fig. 8).
type svcAccum struct {
	calls uint64
	bytes int64
}

// taxAccum is one method's Fig. 10 state: the completion-time histogram
// plus, per histogram bucket, exact nanosecond sums of (total, wire,
// stack, queue) conditioned on the span landing in that bucket. The tail
// panel then sums the buckets at or beyond the method's P95 rank — the
// streaming replacement for retaining raw per-method samples. Only the
// buckets a span landed in have sums, one entry each, sorted by bucket.
type taxAccum struct {
	hist    stats.Hist
	under   [4]int64
	buckets []taxBucket
}

// taxBucket is the Fig. 10 sums of the spans in histogram bucket b.
type taxBucket struct {
	b    int
	sums [4]int64
}

func newTaxAccum() *taxAccum {
	return &taxAccum{hist: stats.LatencyShape.Hist()}
}

func (t *taxAccum) observe(tot, wire, stack, queue int64) {
	b := t.hist.BucketIndex(float64(tot))
	t.hist.Add(float64(tot))
	sums := &t.under
	if b >= 0 {
		i, ok := slices.BinarySearchFunc(t.buckets, b, func(e taxBucket, b int) int { return cmp.Compare(e.b, b) })
		if !ok {
			// Grown to the exact length: most methods' spans land in a
			// few buckets, and append's headroom would outweigh them.
			grown := make([]taxBucket, len(t.buckets)+1)
			copy(grown, t.buckets[:i])
			copy(grown[i+1:], t.buckets[i:])
			grown[i].b = b
			t.buckets = grown
		}
		sums = &t.buckets[i].sums
	}
	sums[0] += tot
	sums[1] += wire
	sums[2] += stack
	sums[3] += queue
}

func (t *taxAccum) merge(o *taxAccum) {
	t.hist.Merge(&o.hist)
	for i := range t.under {
		t.under[i] += o.under[i]
	}
	t.buckets = mergeBuckets(t.buckets, o.buckets)
}

// mergeBuckets returns the sums of a and b, each sorted by bucket, as one
// list sorted by bucket. It adds into a's array when b has no bucket a
// lacks, and otherwise lays the union out in a new one of its length.
func mergeBuckets(a, b []taxBucket) []taxBucket {
	n := len(a)
	for i, j := 0, 0; j < len(b); j++ {
		for i < len(a) && a[i].b < b[j].b {
			i++
		}
		if i == len(a) || a[i].b != b[j].b {
			n++
		}
	}
	// In place, entry k is written only after it is read.
	out := a[:0]
	if n > len(a) {
		out = make([]taxBucket, 0, n)
	}
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || i < len(a) && a[i].b < b[j].b:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].b < a[i].b:
			out = append(out, b[j])
			j++
		default:
			e := a[i]
			for k := range e.sums {
				e.sums[k] += b[j].sums[k]
			}
			out = append(out, e)
			i++
			j++
		}
	}
	return out
}

// tail sums the per-bucket sums at or beyond the q-rank bucket.
func (t *taxAccum) tail(q float64) [4]int64 {
	var out [4]int64
	b := t.hist.RankBucket(q)
	if b < 0 {
		// The rank falls in the underflow bucket: every span qualifies.
		out = t.under
	}
	for _, e := range t.buckets {
		if e.b < b {
			continue
		}
		for j := range out {
			out[j] += e.sums[j]
		}
	}
	return out
}

// NewReportSink returns an empty accumulator set.
func NewReportSink() *ReportSink {
	k := &ReportSink{
		methods:    make(map[string]*methodAccum),
		studiedSet: make(map[string]bool),
		studied:    make(map[string][]*trace.Span),
		vol:        make(map[string]*volAccum),
		svc:        make(map[string]*svcAccum),
		tax:        make(map[string]*taxAccum),
		corr:       stats.NewBottomK(corrSubsample),
		desc:       make(map[string]*stats.Sample),
		anc:        make(map[string]*stats.Sample),
		exo:        make(map[string][]workload.ExoObservation),
	}
	k.graph = newGraphAccum()
	for _, s := range fleet.EightServices() {
		k.studiedSet[s.Method] = true
	}
	return k
}

// MethodSpan folds one stratified per-method sample (workload.SpanSink).
func (k *ReportSink) MethodSpan(s *trace.Span) {
	k.graph.censusSpan(s)
	a := k.methods[s.Method]
	if a == nil {
		a = newMethodAccum()
		k.methods[s.Method] = a
	}
	a.spans++
	if k.studiedSet[s.Method] {
		// Figs. 14-16 need raw spans; retention is bounded by the eight
		// studied methods times their stratified sample count.
		//rpclint:ignore sinkobserve studied-method figures need raw spans; retention bounded to the eight studied methods
		k.studied[s.Method] = append(k.studied[s.Method], s)
	}
	if s.Err.IsError() {
		return // the paper excludes error RPC latency (§2.1)
	}
	a.lat.Add(float64(s.Breakdown.Total()))
	a.req.Add(float64(s.RequestBytes))
	a.resp.Add(float64(s.ResponseBytes))
	if s.RequestBytes != 0 {
		a.ratio.Add(float64(s.ResponseBytes) / float64(s.RequestBytes))
	}
	if s.CPUCycles > 0 {
		a.cpu.Add(s.CPUCycles)
	}
	ratio := s.Breakdown.TaxRatio()
	if ratio <= 0 {
		ratio = 1e-6
	}
	a.taxRatio.Add(ratio)
	a.wireNet.Add(float64(s.Breakdown.Wire() + s.Breakdown.Stack()))
	a.queue.Add(float64(s.Breakdown.Queue()))
}

// VolumeSpan folds one span of the fleet call mix (workload.SpanSink).
func (k *ReportSink) VolumeSpan(s *trace.Span) {
	k.graph.censusSpan(s)
	// Fig. 23: every span counts, errors and hedges included.
	k.errCalls++
	if s.Err.IsError() {
		k.errErrs++
		if int(s.Err) < len(k.errCounts) {
			k.errCounts[s.Err]++
			k.errCycles[s.Err] += s.CPUCycles
		}
		k.wastedCycles += s.CPUCycles
		if s.Err == trace.Cancelled {
			k.cancels++
			if s.Hedged {
				k.hedgedCancels++
			}
		}
	}

	// §2.5 offload coverage: every span, both directions.
	k.offCalls++
	k.offMsgs += 2
	for _, sz := range [2]int64{s.RequestBytes, s.ResponseBytes} {
		k.offBytes += sz
		if sz <= reportMTU {
			k.offMsgsCov++
			k.offBytesCov += sz
		}
	}
	if s.RequestBytes <= reportMTU && s.ResponseBytes <= reportMTU {
		k.offCallsCov++
	}

	if !s.Hedged {
		// Fig. 3 / §5.2: hedge duplicates are not independent calls.
		v := k.vol[s.Method]
		if v == nil {
			v = &volAccum{}
			k.vol[s.Method] = v
		}
		v.calls++
		v.timeNs += int64(s.Breakdown.Total())
		sv := k.svc[s.Service]
		if sv == nil {
			sv = &svcAccum{}
			k.svc[s.Service] = sv
		}
		sv.calls++
		sv.bytes += s.RequestBytes + s.ResponseBytes
	}

	if s.Err.IsError() {
		return
	}
	// Fig. 10 tax decomposition.
	t := k.tax[s.Method]
	if t == nil {
		t = newTaxAccum()
		k.tax[s.Method] = t
	}
	tot := int64(s.Breakdown.Total())
	wire := int64(s.Breakdown.Wire())
	stack := int64(s.Breakdown.Stack())
	queue := int64(s.Breakdown.Queue())
	t.observe(tot, wire, stack, queue)
	k.taxTot += tot
	k.taxWire += wire
	k.taxStack += stack
	k.taxQueue += queue
	k.taxSpans++

	// Fig. 21 correlations.
	if s.CPUCycles > 0 {
		key := stats.Mix64(uint64(s.TraceID) ^ uint64(s.SpanID))
		k.corr.Offer(key, uint64(s.SpanID), [3]float64{
			float64(s.RequestBytes + s.ResponseBytes),
			float64(s.Breakdown.Total()),
			s.CPUCycles,
		})
	}
}

// TreeSpan folds one materialized call-graph span (workload.SpanSink):
// only the tier/motif census consumes it — graph structure arrives via
// GraphShape and TreeShape — so no span is retained.
func (k *ReportSink) TreeSpan(s *trace.Span) { k.graph.censusSpan(s) }

// GraphShape folds one whole-graph summary (workload.SpanSink).
func (k *ReportSink) GraphShape(g workload.GraphStat) {
	a := &k.graph
	a.graphs++
	a.size.Add(float64(g.Spans))
	if g.FanInEdges > 0 {
		a.fanInGraphs++
	}
	a.fanInEdges += uint64(g.FanInEdges)
	a.sharedNodes += uint64(g.SharedNodes)
	a.depthWidth[[2]int{g.Depth, widthBucket(g.Width)}]++
	for i, n := range g.Motifs {
		a.motifNodes[i] += uint64(n)
	}
}

// widthBucket log2-buckets a graph width: bucket b covers widths
// [2^(b-1), 2^b).
func widthBucket(w int) int {
	if w < 0 {
		w = 0
	}
	return bits.Len(uint(w))
}

// TreeShape folds one call observation's shape (workload.SpanSink).
func (k *ReportSink) TreeShape(method string, descendants, ancestors int) {
	workload.AddShape(k.desc, k.anc, method, descendants, ancestors)
}

// ExoSample folds one studied-method exogenous pairing (workload.SpanSink).
func (k *ReportSink) ExoSample(method string, s *trace.Span, exo sim.Exo) {
	//rpclint:ignore sinkobserve exogenous-factor regression (Fig. 17) needs the paired raw spans; bounded by studied-method sampling
	k.exo[method] = append(k.exo[method], workload.ExoObservation{Span: s, Exo: exo})
}

// Merge folds another sink into k. Every floating-point quantity is keyed
// (per method, service, or error code) and combined with one addition per
// key per merge, so merging a fixed sequence of sinks — shards in index
// order — is a deterministic fold regardless of map iteration order.
//
// Merge hands o's state to k rather than copying it: k may adopt o's
// accumulators, so o is reset to an empty sink, independent of k, and a
// caller that keeps its shard list no longer keeps the merged state alive.
func (k *ReportSink) Merge(o *ReportSink) {
	if o == nil {
		return
	}
	for name, oa := range o.methods {
		a := k.methods[name]
		if a == nil {
			k.methods[name] = oa
			continue
		}
		a.merge(oa)
	}
	for name, spans := range o.studied {
		k.studied[name] = append(k.studied[name], spans...)
	}
	for name, ov := range o.vol {
		v := k.vol[name]
		if v == nil {
			k.vol[name] = ov
			continue
		}
		v.calls += ov.calls
		v.timeNs += ov.timeNs
	}
	for name, os := range o.svc {
		sv := k.svc[name]
		if sv == nil {
			k.svc[name] = os
			continue
		}
		sv.calls += os.calls
		sv.bytes += os.bytes
	}
	for name, ot := range o.tax {
		t := k.tax[name]
		if t == nil {
			k.tax[name] = ot
			continue
		}
		t.merge(ot)
	}
	k.taxTot += o.taxTot
	k.taxWire += o.taxWire
	k.taxStack += o.taxStack
	k.taxQueue += o.taxQueue
	k.taxSpans += o.taxSpans

	k.errCalls += o.errCalls
	k.errErrs += o.errErrs
	for i := range k.errCounts {
		k.errCounts[i] += o.errCounts[i]
		k.errCycles[i] += o.errCycles[i]
	}
	k.wastedCycles += o.wastedCycles
	k.cancels += o.cancels
	k.hedgedCancels += o.hedgedCancels

	k.offCalls += o.offCalls
	k.offCallsCov += o.offCallsCov
	k.offMsgs += o.offMsgs
	k.offMsgsCov += o.offMsgsCov
	k.offBytes += o.offBytes
	k.offBytesCov += o.offBytesCov

	k.corr.Merge(o.corr)

	workload.MergeSamples(k.desc, o.desc)
	workload.MergeSamples(k.anc, o.anc)
	for name, obs := range o.exo {
		k.exo[name] = append(k.exo[name], obs...)
	}
	k.graph.merge(&o.graph)
	*o = *NewReportSink()
}

// StudiedSpans returns the retained stratified spans of a studied method,
// in shard order and, within a shard, in generation order. Non-studied
// methods return nil.
func (k *ReportSink) StudiedSpans(method string) []*trace.Span { return k.studied[method] }
