package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/stats"
	"rpcscale/internal/workload"
)

// OffloadCoverageResult quantifies the §2.5 implication: an on-NIC
// (de)serialization offload like Zerializer that only handles messages
// within a single MTU "would be able to accelerate the majority of RPCs
// but would miss the tail".
type OffloadCoverageResult struct {
	MTU int64

	// MessageCoverage is the fraction of messages (requests and
	// responses counted separately — the unit a deserialization offload
	// processes) that fit in one MTU.
	MessageCoverage float64
	// CallCoverage is the fraction of RPCs whose request AND response
	// both fit.
	CallCoverage float64
	// ByteCoverage is the fraction of transferred bytes in covered
	// messages — the part the accelerator actually offloads.
	ByteCoverage float64
}

// OffloadCoverage computes accelerator coverage over the volume mix at the
// report MTU, from accumulated counters.
func (k *ReportSink) OffloadCoverage() *OffloadCoverageResult {
	res := &OffloadCoverageResult{MTU: reportMTU}
	if k.offCalls > 0 {
		res.CallCoverage = float64(k.offCallsCov) / float64(k.offCalls)
		res.MessageCoverage = float64(k.offMsgsCov) / float64(k.offMsgs)
	}
	if k.offBytes > 0 {
		res.ByteCoverage = float64(k.offBytesCov) / float64(k.offBytes)
	}
	return res
}

// Render formats the offload coverage finding.
func (r *OffloadCoverageResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Offload coverage (single-MTU accelerator, MTU=%dB; §2.5)\n", r.MTU)
	fmt.Fprintf(&b, "  messages covered:       %.1f%%\n", r.MessageCoverage*100)
	fmt.Fprintf(&b, "  RPCs fully covered:     %.1f%% of calls\n", r.CallCoverage*100)
	fmt.Fprintf(&b, "  bytes covered:          %.1f%% (the tail escapes)\n", r.ByteCoverage*100)
	return b.String()
}

// OptimizationCoverageResult quantifies §5.2's method-specific
// optimization argument: how much of fleet volume and time a top-K
// optimization program reaches.
type OptimizationCoverageResult struct {
	// Ks are the program sizes evaluated.
	Ks []int
	// CallCoverage[i] is the call share of the Ks[i] most popular
	// methods; TimeCoverage[i] the share of total RPC time.
	CallCoverage []float64
	TimeCoverage []float64
}

// OptimizationCoverage computes the §5.2 table for standard program sizes
// from accumulated per-method volume counters (hedge duplicates excluded
// at accumulation time).
func (k *ReportSink) OptimizationCoverage() *OptimizationCoverageResult {
	var totalCalls uint64
	var totalTimeNs int64
	for _, v := range k.vol {
		totalCalls += v.calls
		totalTimeNs += v.timeNs
	}
	type kv struct {
		m string
		v uint64
	}
	sorted := make([]kv, 0, len(k.vol))
	for _, m := range sortedKeys(k.vol) {
		sorted = append(sorted, kv{m, k.vol[m].calls})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].v != sorted[j].v {
			return sorted[i].v > sorted[j].v
		}
		return sorted[i].m < sorted[j].m
	})

	res := &OptimizationCoverageResult{Ks: []int{1, 10, 100, 1000}}
	for _, topK := range res.Ks {
		var c uint64
		var t int64
		for i := 0; i < topK && i < len(sorted); i++ {
			c += sorted[i].v
			t += k.vol[sorted[i].m].timeNs
		}
		// An empty sink (every span sampled out) has c = t = 0 over a
		// zero total: the max reads that as 0 %, not NaN.
		res.CallCoverage = append(res.CallCoverage, float64(c)/float64(max(totalCalls, 1)))
		res.TimeCoverage = append(res.TimeCoverage, float64(t)/float64(max(totalTimeNs, 1)))
	}
	return res
}

// Render formats the optimization-coverage table.
func (r *OptimizationCoverageResult) Render() string {
	var b strings.Builder
	b.WriteString("Method-specific optimization coverage (§5.2)\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s\n", "top-K", "calls", "RPC time")
	for i, k := range r.Ks {
		fmt.Fprintf(&b, "  %-10d %9.1f%% %9.1f%%\n", k, r.CallCoverage[i]*100, r.TimeCoverage[i]*100)
	}
	return b.String()
}

// ColocationResult is the §5.2 co-location what-if: "adding support to a
// cluster manager for co-locating RPCs from the same RPC tree could
// significantly reduce latency."
type ColocationResult struct {
	Trees int

	// With/Without are root completion-time summaries with production
	// co-location (boost 0.75) vs none (nested calls placed by raw
	// locality only).
	WithP50, WithP99       time.Duration
	WithoutP50, WithoutP99 time.Duration
	// CrossRateWith/Without are the fractions of nested calls leaving
	// their parent's cluster.
	CrossRateWith    float64
	CrossRateWithout float64
}

// ColocationStudy runs the co-location experiment: the same tree
// workload under two placement regimes, built from the given generator
// factory (seeded identically so the workloads match).
func ColocationStudy(mk func() *workload.Generator, trees int) *ColocationResult {
	if trees <= 0 {
		trees = 300
	}
	run := func(boost float64) (*stats.Sample, float64) {
		gen := mk()
		gen.ColocateBoost = boost
		roots := stats.NewSample(trees)
		var nested, cross float64
		for i := 0; i < trees; i++ {
			m := pickEntry(gen.Cat, i)
			at := time.Duration(i) * 173 * time.Millisecond
			gen.Call(m, workload.CallOptions{
				At: at, MaxDepth: 6, Budget: 600, Materialize: true,
				Observe: func(o workload.CallObservation) {
					if o.Span.ParentID == 0 {
						roots.Add(float64(o.Span.Breakdown.Total()))
						return
					}
					nested++
					if !o.Span.SameCluster() {
						cross++
					}
				},
			})
		}
		rate := 0.0
		if nested > 0 {
			rate = cross / nested
		}
		return roots, rate
	}
	with, rateWith := run(0.75)
	without, rateWithout := run(0)
	return &ColocationResult{
		Trees:            trees,
		WithP50:          time.Duration(int64(with.Quantile(0.5))),
		WithP99:          time.Duration(int64(with.Quantile(0.99))),
		WithoutP50:       time.Duration(int64(without.Quantile(0.5))),
		WithoutP99:       time.Duration(int64(without.Quantile(0.99))),
		CrossRateWith:    rateWith,
		CrossRateWithout: rateWithout,
	}
}

// pickEntry deterministically selects high-layer entry methods.
func pickEntry(cat *fleet.Catalog, i int) *fleet.Method {
	var entries []*fleet.Method
	for _, m := range cat.Methods {
		if m.Layer >= 2 && len(m.Callees) > 0 {
			entries = append(entries, m)
		}
	}
	if len(entries) == 0 {
		entries = cat.Methods
	}
	return entries[i%len(entries)]
}

// Render formats the co-location what-if.
func (r *ColocationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Co-location what-if (%d trees; §5.2)\n", r.Trees)
	fmt.Fprintf(&b, "  %-24s %12s %12s %16s\n", "placement", "root P50", "root P99", "nested cross-rate")
	fmt.Fprintf(&b, "  %-24s %12v %12v %15.1f%%\n", "tree co-location",
		r.WithP50.Round(time.Microsecond), r.WithP99.Round(time.Microsecond), r.CrossRateWith*100)
	fmt.Fprintf(&b, "  %-24s %12v %12v %15.1f%%\n", "locality only",
		r.WithoutP50.Round(time.Microsecond), r.WithoutP99.Round(time.Microsecond), r.CrossRateWithout*100)
	return b.String()
}
