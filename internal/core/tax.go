package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpcscale/internal/stats"
)

// TaxResult is Fig. 10: fleet-wide RPC latency tax, on average and at the
// P95 tail, with the queue/stack/wire decomposition.
type TaxResult struct {
	// MeanTaxShare is total tax time / total completion time (the
	// paper's "average tax is 2.0%").
	MeanTaxShare float64
	// Wire/Stack/QueueShare decompose MeanTaxShare (paper: 1.1%, 0.49%,
	// 0.43%).
	WireShare  float64
	StackShare float64
	QueueShare float64

	// Tail variants: the same quantities over spans whose completion
	// time is at or beyond the fleet P95.
	TailTaxShare   float64
	TailWireShare  float64
	TailStackShare float64
	TailQueueShare float64

	P95Threshold time.Duration
	Spans        int
}

// TaxAnalysis computes Fig. 10 over the volume mix. The mean panel is a
// ratio of exact integer nanosecond sums. The tail panel (Fig. 10c/d)
// selects spans at or beyond their *own method's* P95 — "RPCs with P95
// tail latency" in the paper's phrasing — rather than a fleet-absolute
// threshold, which would merely select the slowest methods: it sums the
// per-bucket component sums of each method's completion-time histogram at
// and beyond its P95-rank bucket, the bounded-memory stand-in for
// selecting raw spans at or beyond the method's exact P95.
func (k *ReportSink) TaxAnalysis() *TaxResult {
	names := sortedKeys(k.tax)
	p95s := stats.NewSample(len(names))
	var tTotal, tWire, tStack, tQueue int64
	for _, name := range names {
		t := k.tax[name]
		p95s.Add(t.hist.Quantile(0.95))
		tail := t.tail(0.95)
		tTotal += tail[0]
		tWire += tail[1]
		tStack += tail[2]
		tQueue += tail[3]
	}
	// Representative threshold for display: the median method's P95.
	res := &TaxResult{P95Threshold: time.Duration(int64(p95s.Quantile(0.5))), Spans: k.taxSpans}
	if k.taxTot > 0 {
		res.WireShare = float64(k.taxWire) / float64(k.taxTot)
		res.StackShare = float64(k.taxStack) / float64(k.taxTot)
		res.QueueShare = float64(k.taxQueue) / float64(k.taxTot)
		res.MeanTaxShare = res.WireShare + res.StackShare + res.QueueShare
	}
	if tTotal > 0 {
		res.TailWireShare = float64(tWire) / float64(tTotal)
		res.TailStackShare = float64(tStack) / float64(tTotal)
		res.TailQueueShare = float64(tQueue) / float64(tTotal)
		res.TailTaxShare = res.TailWireShare + res.TailStackShare + res.TailQueueShare
	}
	return res
}

// Render formats Fig. 10.
func (r *TaxResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.10  Fleet-wide RPC latency tax (%d spans, P95=%v)\n", r.Spans, r.P95Threshold.Round(time.Millisecond))
	fmt.Fprintf(&b, "  mean:  tax %.2f%%  (wire %.2f%%, stack %.2f%%, queue %.2f%%)\n",
		r.MeanTaxShare*100, r.WireShare*100, r.StackShare*100, r.QueueShare*100)
	fmt.Fprintf(&b, "  P95+:  tax %.2f%%  (wire %.2f%%, stack %.2f%%, queue %.2f%%)\n",
		r.TailTaxShare*100, r.TailWireShare*100, r.TailStackShare*100, r.TailQueueShare*100)
	return b.String()
}

// TaxRatioByMethod is Fig. 11: the per-method distribution of the tax
// ratio (tax / completion time).
type TaxRatioByMethodResult struct {
	Rows []MethodDist // unit: ratio; sorted by median

	MedianMethodMedian float64 // paper: 0.086
	TopDecileMedian    float64 // paper: 0.38 (10% highest-overhead methods)
	TopDecileP90       float64 // paper: 0.96
}

// TaxRatioByMethod computes Fig. 11 from stratified samples.
func (k *ReportSink) TaxRatioByMethod() *TaxRatioByMethodResult {
	base := k.perMethodResult("tax ratio", "ratio", func(a *methodAccum) *stats.Hist { return &a.taxRatio })
	res := &TaxRatioByMethodResult{Rows: base.Rows}
	n := len(res.Rows)
	if n == 0 {
		return res
	}
	res.MedianMethodMedian = res.Rows[n/2].Summary.P50
	// Top decile by median ratio: last 10% of the sorted rows.
	top := res.Rows[n-n/10:]
	meds := stats.NewSample(len(top))
	p90s := stats.NewSample(len(top))
	for _, row := range top {
		meds.Add(row.Summary.P50)
		p90s.Add(row.Summary.P90)
	}
	res.TopDecileMedian = meds.Quantile(0.5)
	res.TopDecileP90 = p90s.Quantile(0.5)
	return res
}

// Render formats Fig. 11.
func (r *TaxRatioByMethodResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.11  Per-method tax ratio (%d methods)\n", len(r.Rows))
	fmt.Fprintf(&b, "  median method's median ratio: %.1f%%\n", r.MedianMethodMedian*100)
	fmt.Fprintf(&b, "  top-overhead decile: median %.1f%%, P90 %.1f%%\n",
		r.TopDecileMedian*100, r.TopDecileP90*100)
	return b.String()
}

// TaxComponentsResult covers Figs. 12 and 13: per-method network
// wire+stack latency and per-method queuing latency.
type TaxComponentsResult struct {
	WireNet *PerMethodResult // Fig. 12
	Queue   *PerMethodResult // Fig. 13

	// Fig. 12 anchors.
	FastHalfWireP99 time.Duration // paper: <= 115 ms
	Slow10pWireP99  time.Duration // paper: >= 271 ms
	Slow1pWireP99   time.Duration // paper: ~826 ms
	// Fig. 13 anchors.
	MedianQueueMedian time.Duration // paper: ~360 us
	MedianQueueP99    time.Duration // paper: ~102 ms
	TopQueueMedian    time.Duration // paper: ~1.1 ms
	TopQueueP99       time.Duration // paper: ~611 ms
}

// TaxComponents computes Figs. 12/13 from stratified samples.
func (k *ReportSink) TaxComponents() *TaxComponentsResult {
	res := &TaxComponentsResult{
		WireNet: k.perMethodResult("wire + stack latency", "ns", func(a *methodAccum) *stats.Hist { return &a.wireNet }),
		Queue:   k.perMethodResult("queuing latency", "ns", func(a *methodAccum) *stats.Hist { return &a.queue }),
	}
	// Fig. 12: methods sorted by median wire+stack; anchor P99s.
	if n := len(res.WireNet.Rows); n > 0 {
		p99s := make([]float64, n)
		for i, row := range res.WireNet.Rows {
			p99s[i] = row.Summary.P99
		}
		sorted := append([]float64(nil), p99s...)
		sort.Float64s(sorted)
		res.FastHalfWireP99 = time.Duration(int64(sorted[n/2]))
		res.Slow10pWireP99 = time.Duration(int64(sorted[n-n/10-1]))
		res.Slow1pWireP99 = time.Duration(int64(sorted[n-max(n/100, 1)]))
	}
	// Fig. 13 anchors.
	if n := len(res.Queue.Rows); n > 0 {
		mid := res.Queue.Rows[n/2]
		res.MedianQueueMedian = time.Duration(int64(mid.Summary.P50))
		res.MedianQueueP99 = time.Duration(int64(mid.Summary.P99))
		top := res.Queue.Rows[n-n/10:]
		meds := stats.NewSample(len(top))
		p99s := stats.NewSample(len(top))
		for _, row := range top {
			meds.Add(row.Summary.P50)
			p99s.Add(row.Summary.P99)
		}
		res.TopQueueMedian = time.Duration(int64(meds.Quantile(0.5)))
		res.TopQueueP99 = time.Duration(int64(p99s.Quantile(0.5)))
	}
	return res
}

// Render formats Figs. 12/13 anchors.
func (r *TaxComponentsResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig.12  Per-method wire+stack latency\n")
	fmt.Fprintf(&b, "  P99 of fastest half of methods:  <= %v\n", r.FastHalfWireP99.Round(time.Millisecond))
	fmt.Fprintf(&b, "  P99 of slowest decile:           >= %v\n", r.Slow10pWireP99.Round(time.Millisecond))
	fmt.Fprintf(&b, "  P99 of slowest 1%%:               %v\n", r.Slow1pWireP99.Round(time.Millisecond))
	b.WriteString("Fig.13  Per-method queuing latency\n")
	fmt.Fprintf(&b, "  median method: median %v, P99 %v\n",
		r.MedianQueueMedian.Round(time.Microsecond), r.MedianQueueP99.Round(time.Millisecond))
	fmt.Fprintf(&b, "  top queue decile: median %v, P99 %v\n",
		r.TopQueueMedian.Round(time.Microsecond), r.TopQueueP99.Round(time.Millisecond))
	return b.String()
}
