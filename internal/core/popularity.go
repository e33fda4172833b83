package core

import (
	"fmt"
	"sort"
	"strings"
)

// PopularityResult is Fig. 3: method popularity against the
// median-latency ordering, with the §2.3 skew anchors.
type PopularityResult struct {
	// ShareByLatencyRank follows the catalog's latency ordering.
	ShareByLatencyRank []MethodShare

	Top10Share      float64 // paper: 0.58
	Top100Share     float64 // paper: 0.91
	TopMethod       string  // paper: networkdisk Write
	TopMethodShare  float64 // paper: 0.28
	Lowest100Share  float64 // paper: 0.40
	SlowDecileCalls float64 // paper: 0.011
	SlowDecileTime  float64 // paper: 0.89 of total RPC time
}

// MethodShare is one method's observed share of calls.
type MethodShare struct {
	Method string
	Share  float64
}

// PopularityAnalysis computes Fig. 3 from accumulated volume counts
// (hedge duplicates excluded at accumulation time). Latency ordering comes
// from the stratified per-method medians so the result is purely
// observational (catalog internals are not consulted).
func (k *ReportSink) PopularityAnalysis(latencyOrder *PerMethodResult) *PopularityResult {
	var totalCalls uint64
	var allTimeNs int64
	for _, v := range k.vol {
		totalCalls += v.calls
		allTimeNs += v.timeNs
	}
	total := float64(totalCalls)
	res := &PopularityResult{}
	// Order by the latency ranking (methods without volume samples get
	// zero share rows so the x-axis matches Fig. 2's).
	for _, row := range latencyOrder.Rows {
		var share float64
		if v := k.vol[row.Method]; v != nil {
			share = float64(v.calls) / total
		}
		res.ShareByLatencyRank = append(res.ShareByLatencyRank, MethodShare{
			Method: row.Method,
			Share:  share,
		})
	}
	// Popularity-sorted anchors, name-ascending on share ties so the
	// ranking is unique.
	type kv struct {
		m string
		v float64
	}
	var sorted []kv
	for _, m := range sortedKeys(k.vol) {
		sorted = append(sorted, kv{m, float64(k.vol[m].calls) / total})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].v != sorted[j].v {
			return sorted[i].v > sorted[j].v
		}
		return sorted[i].m < sorted[j].m
	})
	for i, e := range sorted {
		if i < 10 {
			res.Top10Share += e.v
		}
		if i < 100 {
			res.Top100Share += e.v
		}
	}
	if len(sorted) > 0 {
		res.TopMethod, res.TopMethodShare = sorted[0].m, sorted[0].v
	}
	// Lowest-latency "100 methods": the paper's 100-of-10,000 is the
	// fastest 1% of the catalog, so at smaller scales the equivalent
	// set is N/100 methods (floor 5).
	n := len(res.ShareByLatencyRank)
	low := n / 100
	if low < 5 {
		low = 5
	}
	if low > 100 {
		low = 100
	}
	if low > n {
		low = n
	}
	for _, e := range res.ShareByLatencyRank[:low] {
		res.Lowest100Share += e.Share
	}
	// Slowest decile: call share and time share.
	cut := n - n/10
	var slowTimeNs int64
	for _, e := range res.ShareByLatencyRank[cut:] {
		res.SlowDecileCalls += e.Share
		if v := k.vol[e.Method]; v != nil {
			slowTimeNs += v.timeNs
		}
	}
	if allTimeNs > 0 {
		res.SlowDecileTime = float64(slowTimeNs) / float64(allTimeNs)
	}
	return res
}

// Render formats Fig. 3.
func (r *PopularityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.3  Method popularity (latency-rank order, %d methods)\n", len(r.ShareByLatencyRank))
	fmt.Fprintf(&b, "  top method:          %-24s %.1f%% of calls\n", r.TopMethod, r.TopMethodShare*100)
	fmt.Fprintf(&b, "  top-10 methods:      %.1f%% of calls\n", r.Top10Share*100)
	fmt.Fprintf(&b, "  top-100 methods:     %.1f%% of calls\n", r.Top100Share*100)
	fmt.Fprintf(&b, "  lowest-latency 100:  %.1f%% of calls\n", r.Lowest100Share*100)
	fmt.Fprintf(&b, "  slowest decile:      %.2f%% of calls, %.1f%% of total RPC time\n",
		r.SlowDecileCalls*100, r.SlowDecileTime*100)
	return b.String()
}
