package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpcscale/internal/fleet"
	"rpcscale/internal/gwp"
	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// ServiceShareRow is one service's slice of Fig. 8.
type ServiceShareRow struct {
	Service    string
	CallShare  float64
	ByteShare  float64
	CycleShare float64
}

// ServiceShareResult is Fig. 8: the fraction of fleet calls, bytes, and
// CPU cycles per service.
type ServiceShareResult struct {
	Rows []ServiceShareRow // sorted by call share descending
	// Top8CallShare is the paper's "top 8 applications account for 60%
	// of total invocations".
	Top8CallShare float64
}

// ServiceShares computes Fig. 8 from accumulated per-service counts
// (hedge duplicates excluded at accumulation time) plus the run's GWP
// profile, which is carried separately from the span stream.
func (k *ReportSink) ServiceShares(prof *gwp.Snapshot) *ServiceShareResult {
	var totalCalls uint64
	var totalBytes int64
	for _, sv := range k.svc {
		totalCalls += sv.calls
		totalBytes += sv.bytes
	}
	cycles := make(map[string]float64)
	var totalCycles float64
	if prof != nil {
		for _, sp := range prof.Services {
			cycles[sp.Service] = sp.Total()
			totalCycles += sp.Total()
		}
	}
	res := &ServiceShareResult{}
	for _, svc := range sortedKeys(k.svc) {
		sv := k.svc[svc]
		row := ServiceShareRow{Service: svc, CallShare: float64(sv.calls) / float64(totalCalls)}
		if totalBytes > 0 {
			row.ByteShare = float64(sv.bytes) / float64(totalBytes)
		}
		if totalCycles > 0 {
			row.CycleShare = cycles[svc] / totalCycles
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].CallShare != res.Rows[j].CallShare {
			return res.Rows[i].CallShare > res.Rows[j].CallShare
		}
		return res.Rows[i].Service < res.Rows[j].Service
	})
	for i, r := range res.Rows {
		if i >= 8 {
			break
		}
		res.Top8CallShare += r.CallShare
	}
	return res
}

// Row finds a service's row, or a zero row.
func (r *ServiceShareResult) Row(service string) ServiceShareRow {
	for _, row := range r.Rows {
		if row.Service == service {
			return row
		}
	}
	return ServiceShareRow{Service: service}
}

// Render formats Fig. 8.
func (r *ServiceShareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.8  Service shares (top-8 call share %.1f%%)\n", r.Top8CallShare*100)
	fmt.Fprintf(&b, "  %-16s %8s %8s %8s\n", "service", "calls", "bytes", "cycles")
	limit := 12
	for i, row := range r.Rows {
		if i >= limit {
			break
		}
		fmt.Fprintf(&b, "  %-16s %7.2f%% %7.2f%% %7.2f%%\n",
			row.Service, row.CallShare*100, row.ByteShare*100, row.CycleShare*100)
	}
	return b.String()
}

// RenderEightServices formats Table 1.
func RenderEightServices() string {
	var b strings.Builder
	b.WriteString("Table 1  Studied services\n")
	fmt.Fprintf(&b, "  %-14s %-14s %-9s %-28s %-9s %s\n",
		"server", "client", "size", "method", "class", "dominant")
	for _, s := range fleet.EightServices() {
		fmt.Fprintf(&b, "  %-14s %-14s %-9s %-28s %-9s %s\n",
			s.Service, s.Client, fmtBytes(float64(s.RPCSize)), s.Method, s.Class, s.Dominant)
	}
	return b.String()
}

// PercentileBreakdown is one x-position of a Fig. 14 CDF: the spans near
// one completion-time percentile, averaged per component.
type PercentileBreakdown struct {
	Pct        float64
	Total      time.Duration
	Components trace.Breakdown
}

// ServiceBreakdownResult is one studied service's Fig. 14 panel.
type ServiceBreakdownResult struct {
	Method string
	Spans  int
	Curve  []PercentileBreakdown

	Dominant      trace.Component
	DominantAtP50 float64 // dominant component's share of total at the median
	DominantAtP95 float64
	P95OverMedian float64 // paper: 1.86x - 10.6x
}

// ServiceBreakdown computes a Fig. 14 panel from the intra-cluster spans
// the sink retained for the studied method.
func (k *ReportSink) ServiceBreakdown(method string) *ServiceBreakdownResult {
	spans := intraCluster(k.StudiedSpans(method))
	res := &ServiceBreakdownResult{Method: method, Spans: len(spans)}
	if len(spans) < 20 {
		return res
	}
	sort.Slice(spans, func(i, j int) bool {
		return spans[i].Breakdown.Total() < spans[j].Breakdown.Total()
	})
	pcts := []float64{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99}
	for _, p := range pcts {
		lo := int(float64(len(spans)) * (p - 2) / 100)
		hi := int(float64(len(spans)) * (p + 2) / 100)
		if lo < 0 {
			lo = 0
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(spans) {
			hi = len(spans)
		}
		var avg trace.Breakdown
		for _, s := range spans[lo:hi] {
			avg.Add(&s.Breakdown)
		}
		avg.Scale(hi - lo)
		res.Curve = append(res.Curve, PercentileBreakdown{
			Pct: p, Total: avg.Total(), Components: avg,
		})
	}
	// Dominant component at the median band.
	med := res.at(50)
	res.Dominant = med.Components.Dominant()
	if med.Total > 0 {
		res.DominantAtP50 = float64(med.Components[res.Dominant]) / float64(med.Total)
	}
	p95 := res.at(95)
	if p95.Total > 0 {
		res.DominantAtP95 = float64(p95.Components[res.Dominant]) / float64(p95.Total)
	}
	if med.Total > 0 {
		res.P95OverMedian = float64(p95.Total) / float64(med.Total)
	}
	return res
}

func (r *ServiceBreakdownResult) at(pct float64) PercentileBreakdown {
	for _, c := range r.Curve {
		if c.Pct == pct {
			return c
		}
	}
	return PercentileBreakdown{}
}

func intraCluster(spans []*trace.Span) []*trace.Span {
	out := make([]*trace.Span, 0, len(spans))
	for _, s := range spans {
		if s.SameCluster() && !s.Err.IsError() {
			out = append(out, s)
		}
	}
	return out
}

// DominantGroup classifies the dominant component into the paper's three
// §3.3.1 categories.
func DominantGroup(c trace.Component) string {
	switch c {
	case trace.ServerApp:
		return "app"
	case trace.ClientSendQueue, trace.ServerRecvQueue, trace.ServerSendQueue, trace.ClientRecvQueue:
		return "queue"
	default:
		return "stack"
	}
}

// Render formats one Fig. 14 panel.
func (r *ServiceBreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.14  %s (%d intra-cluster spans)\n", r.Method, r.Spans)
	fmt.Fprintf(&b, "  dominant component: %s (%s) — %.0f%% of total at P50, %.0f%% at P95; P95/P50 = %.2fx\n",
		r.Dominant.Label(), DominantGroup(r.Dominant),
		r.DominantAtP50*100, r.DominantAtP95*100, r.P95OverMedian)
	fmt.Fprintf(&b, "  %-5s %12s %12s %12s %12s\n", "pct", "total", "app", "queue", "wire+stack")
	for _, c := range r.Curve {
		fmt.Fprintf(&b, "  P%-4.0f %12v %12v %12v %12v\n", c.Pct,
			c.Total.Round(time.Microsecond),
			c.Components[trace.ServerApp].Round(time.Microsecond),
			c.Components.Queue().Round(time.Microsecond),
			(c.Components.Wire() + c.Components.Stack()).Round(time.Microsecond))
	}
	return b.String()
}

// WhatIfRow is Fig. 15: the percentage of P95-tail RPCs that drop below
// the former P95 threshold when one component is reset to its median.
type WhatIfRow struct {
	Method    string
	Reduction [trace.NumComponents]float64 // percentage points, 0..100
}

// WhatIf computes Fig. 15 from the sink's retained studied-method spans.
func (k *ReportSink) WhatIf(methods []string) []WhatIfRow {
	var rows []WhatIfRow
	for _, method := range methods {
		spans := intraCluster(k.StudiedSpans(method))
		if len(spans) < 50 {
			rows = append(rows, WhatIfRow{Method: method})
			continue
		}
		totals := stats.NewSample(len(spans))
		var medians trace.Breakdown
		// Component medians over all spans.
		for c := 0; c < trace.NumComponents; c++ {
			cs := stats.NewSample(len(spans))
			for _, s := range spans {
				cs.Add(float64(s.Breakdown[c]))
			}
			medians[c] = time.Duration(int64(cs.Quantile(0.5)))
		}
		for _, s := range spans {
			totals.Add(float64(s.Breakdown.Total()))
		}
		p95 := time.Duration(int64(totals.Quantile(0.95)))

		var tail []*trace.Span
		for _, s := range spans {
			if s.Breakdown.Total() >= p95 {
				tail = append(tail, s)
			}
		}
		row := WhatIfRow{Method: method}
		if len(tail) == 0 {
			rows = append(rows, row)
			continue
		}
		for c := 0; c < trace.NumComponents; c++ {
			rescued := 0
			for _, s := range tail {
				adj := s.Breakdown
				if adj[c] > medians[c] {
					adj[c] = medians[c]
				}
				if adj.Total() < p95 {
					rescued++
				}
			}
			row.Reduction[c] = 100 * float64(rescued) / float64(len(tail))
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderWhatIf formats Fig. 15 as the paper's matrix.
func RenderWhatIf(rows []WhatIfRow) string {
	var b strings.Builder
	b.WriteString("Fig.15  What-if: % of P95-tail RPCs made non-tail by resetting a component to its median\n")
	fmt.Fprintf(&b, "  %-28s", "method")
	for c := 0; c < trace.NumComponents; c++ {
		fmt.Fprintf(&b, " %6s", shortComponent(trace.Component(c)))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s", r.Method)
		for c := 0; c < trace.NumComponents; c++ {
			fmt.Fprintf(&b, " %6.1f", r.Reduction[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shortComponent(c trace.Component) string {
	switch c {
	case trace.ClientSendQueue:
		return "CSQ"
	case trace.ReqProcStack:
		return "ReqPS"
	case trace.ReqNetworkWire:
		return "ReqNW"
	case trace.ServerRecvQueue:
		return "SRQ"
	case trace.ServerApp:
		return "App"
	case trace.ServerSendQueue:
		return "SSQ"
	case trace.RespProcStack:
		return "RspPS"
	case trace.RespNetworkWire:
		return "RspNW"
	case trace.ClientRecvQueue:
		return "CRQ"
	}
	return "?"
}

// ClusterBreakdown is one cluster's P95 latency breakdown for a method
// (one bar of Fig. 16).
type ClusterBreakdown struct {
	Cluster    string
	Spans      int
	P95        time.Duration
	Components trace.Breakdown // average over the P95 band
	Dominant   trace.Component
}

// ClusterVariationResult is one studied service's Fig. 16 panel.
type ClusterVariationResult struct {
	Method   string
	Clusters []ClusterBreakdown // sorted by P95 ascending
	// Spread is max/min P95 across clusters (paper: 1.24x - 10x).
	Spread float64
	// DominantStable reports whether the dominant component is the same
	// in most clusters (paper: it is).
	DominantStable bool
}

// ClusterVariation computes Fig. 16 for one studied method from the
// sink's retained spans.
func (k *ReportSink) ClusterVariation(method string, minSpansPerCluster int) *ClusterVariationResult {
	if minSpansPerCluster <= 0 {
		minSpansPerCluster = 30
	}
	byCluster := make(map[string][]*trace.Span)
	for _, s := range intraCluster(k.StudiedSpans(method)) {
		byCluster[s.ServerCluster] = append(byCluster[s.ServerCluster], s)
	}
	res := &ClusterVariationResult{Method: method}
	for _, cl := range sortedKeys(byCluster) {
		spans := byCluster[cl]
		if len(spans) < minSpansPerCluster {
			continue
		}
		sort.Slice(spans, func(i, j int) bool {
			return spans[i].Breakdown.Total() < spans[j].Breakdown.Total()
		})
		lo := int(float64(len(spans)) * 0.90)
		band := spans[lo:]
		var avg trace.Breakdown
		for _, s := range band {
			avg.Add(&s.Breakdown)
		}
		avg.Scale(len(band))
		res.Clusters = append(res.Clusters, ClusterBreakdown{
			Cluster:    cl,
			Spans:      len(spans),
			P95:        spans[int(float64(len(spans))*0.95)].Breakdown.Total(),
			Components: avg,
			Dominant:   avg.Dominant(),
		})
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i].P95 < res.Clusters[j].P95 })
	if n := len(res.Clusters); n > 1 {
		res.Spread = float64(res.Clusters[n-1].P95) / float64(res.Clusters[0].P95)
		counts := make(map[trace.Component]int)
		for _, c := range res.Clusters {
			counts[c.Dominant]++
		}
		for _, n2 := range counts {
			if float64(n2) >= 0.6*float64(n) {
				res.DominantStable = true
			}
		}
	}
	return res
}

// Render formats a Fig. 16 panel.
func (r *ClusterVariationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.16  %s across %d clusters  (P95 spread %.2fx, dominant stable: %v)\n",
		r.Method, len(r.Clusters), r.Spread, r.DominantStable)
	for i, c := range r.Clusters {
		if i%4 != 0 && i != len(r.Clusters)-1 {
			continue // decimate for readability
		}
		fmt.Fprintf(&b, "  %-22s P95 %10v  dominant %s\n",
			c.Cluster, c.P95.Round(time.Microsecond), shortComponent(c.Dominant))
	}
	return b.String()
}
