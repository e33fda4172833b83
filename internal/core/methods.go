package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpcscale/internal/stats"
)

// MethodDist is one row of a per-method distribution figure: a method and
// the percentile summary of one of its per-call quantities.
type MethodDist struct {
	Method  string
	Summary stats.Summary
}

// PerMethodResult is the generic per-method figure: rows sorted by the
// row median (the paper sorts every such figure by median), plus the
// cross-method distribution of selected percentiles ("CDF of the CDFs").
type PerMethodResult struct {
	What string // which quantity (for rendering)
	Unit string // "ns", "B", "cycles", "ratio"
	Rows []MethodDist
}

// minSamplesPerMethod mirrors the paper's rule: only methods with at
// least 100 samples are analyzed, so P99 is well defined.
const minSamplesPerMethod = 100

// perMethodResult assembles a per-method figure from one accumulated
// histogram per method: methods below the sample gate or with no value
// added are skipped, and rows sort by median as in every such paper
// figure.
func (k *ReportSink) perMethodResult(what, unit string, hist func(*methodAccum) *stats.Hist) *PerMethodResult {
	res := &PerMethodResult{What: what, Unit: unit}
	for _, name := range sortedKeys(k.methods) {
		a := k.methods[name]
		if a.spans < minSamplesPerMethod {
			continue
		}
		h := hist(a)
		if h.Count() == 0 {
			continue
		}
		res.Rows = append(res.Rows, MethodDist{Method: name, Summary: h.Summarize()})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Summary.P50 < res.Rows[j].Summary.P50 })
	return res
}

// CrossMethod returns the distribution of one percentile across methods
// (e.g., "the P99 column of Fig. 2b").
func (r *PerMethodResult) CrossMethod(get func(stats.Summary) float64) *stats.Sample {
	s := stats.NewSample(len(r.Rows))
	for _, row := range r.Rows {
		s.Add(get(row.Summary))
	}
	return s
}

// FractionOfMethods counts rows satisfying pred.
func (r *PerMethodResult) FractionOfMethods(pred func(stats.Summary) bool) float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if pred(row.Summary) {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// LatencyByMethod is Fig. 2: per-method RPC completion time, sorted by
// median.
func (k *ReportSink) LatencyByMethod() *PerMethodResult {
	return k.perMethodResult("RPC completion time", "ns", func(a *methodAccum) *stats.Hist { return a.lat })
}

// LatencyAnchors summarizes Fig. 2's headline claims for EXPERIMENTS.md.
type LatencyAnchors struct {
	FracP1Under657us   float64 // paper: 0.90
	FracMedianOver10ms float64 // paper: 0.90
	FracP99Over1ms     float64 // paper: 0.995
	FracP99Over225ms   float64 // paper: 0.50
	Slow5pP99          time.Duration
}

// Anchors computes the §2.3 anchor statistics from a Fig. 2 result.
func (r *PerMethodResult) Anchors() LatencyAnchors {
	a := LatencyAnchors{
		FracP1Under657us: r.FractionOfMethods(func(s stats.Summary) bool {
			return s.P1 <= float64(657*time.Microsecond)
		}),
		FracMedianOver10ms: r.FractionOfMethods(func(s stats.Summary) bool {
			return s.P50 >= float64(10700*time.Microsecond)
		}),
		FracP99Over1ms: r.FractionOfMethods(func(s stats.Summary) bool {
			return s.P99 >= float64(time.Millisecond)
		}),
		FracP99Over225ms: r.FractionOfMethods(func(s stats.Summary) bool {
			return s.P99 >= float64(225*time.Millisecond)
		}),
	}
	// Slowest 5% of methods (by median): their median P99.
	if n := len(r.Rows); n > 0 {
		p99 := stats.NewSample(n / 20)
		for _, row := range r.Rows[n-n/20:] {
			p99.Add(row.Summary.P99)
		}
		a.Slow5pP99 = time.Duration(int64(p99.Quantile(0.5)))
	}
	return a
}

// RequestSizeByMethod is Fig. 6a.
func (k *ReportSink) RequestSizeByMethod() *PerMethodResult {
	return k.perMethodResult("request size", "B", func(a *methodAccum) *stats.Hist { return a.req })
}

// ResponseSizeByMethod is Fig. 6b (the paper quotes response anchors in
// the text).
func (k *ReportSink) ResponseSizeByMethod() *PerMethodResult {
	return k.perMethodResult("response size", "B", func(a *methodAccum) *stats.Hist { return a.resp })
}

// SizeRatioByMethod is Fig. 7: response/request per call, per method.
func (k *ReportSink) SizeRatioByMethod() *PerMethodResult {
	return k.perMethodResult("response/request ratio", "ratio", func(a *methodAccum) *stats.Hist { return a.ratio })
}

// CPUByMethod is Fig. 21: per-method normalized CPU cycles.
func (k *ReportSink) CPUByMethod() *PerMethodResult {
	return k.perMethodResult("CPU cost", "cycles", func(a *methodAccum) *stats.Hist { return a.cpu })
}

// CPUCorrelations reports the §4.2 finding that neither size nor latency
// predicts CPU cost (rank correlations near zero).
type CPUCorrelations struct {
	SizeVsCPU    float64
	LatencyVsCPU float64
}

// CPUCorrelationAnalysis computes rank correlations over the accumulated
// correlation subsample: a hash-ordered bottom-k sketch of the volume mix,
// so the estimate is independent of stream order and sharding while the
// state stays a fixed size.
func (k *ReportSink) CPUCorrelationAnalysis() CPUCorrelations {
	items := k.corr.Items()
	sizes := make([]float64, 0, len(items))
	lats := make([]float64, 0, len(items))
	cpus := make([]float64, 0, len(items))
	for _, it := range items {
		sizes = append(sizes, it.Vals[0])
		lats = append(lats, it.Vals[1])
		cpus = append(cpus, it.Vals[2])
	}
	return CPUCorrelations{
		SizeVsCPU:    stats.SpearmanRank(sizes, cpus),
		LatencyVsCPU: stats.SpearmanRank(lats, cpus),
	}
}

// Render formats a per-method figure as a decile table plus cross-method
// percentile rows.
func (r *PerMethodResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-method %s (%d methods, sorted by median)\n", r.What, len(r.Rows))
	fmt.Fprintf(&b, "  %-8s %12s %12s %12s %12s\n", "methods", "P1", "P50", "P99", "max")
	step := len(r.Rows) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Rows); i += step {
		row := r.Rows[i]
		fmt.Fprintf(&b, "  rank%-4d %12s %12s %12s %12s\n", i,
			r.fmtVal(row.Summary.P1), r.fmtVal(row.Summary.P50),
			r.fmtVal(row.Summary.P99), r.fmtVal(row.Summary.Max))
	}
	meds := r.CrossMethod(func(s stats.Summary) float64 { return s.P50 })
	p99s := r.CrossMethod(func(s stats.Summary) float64 { return s.P99 })
	fmt.Fprintf(&b, "  across methods: median-of-medians %s, median-of-P99s %s\n",
		r.fmtVal(meds.Quantile(0.5)), r.fmtVal(p99s.Quantile(0.5)))
	return b.String()
}

func (r *PerMethodResult) fmtVal(v float64) string {
	switch r.Unit {
	case "ns":
		return time.Duration(int64(v)).Round(time.Microsecond).String()
	case "B":
		return fmtBytes(v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
