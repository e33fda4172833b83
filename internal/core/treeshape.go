package core

import (
	"fmt"
	"sort"
	"strings"

	"rpcscale/internal/stats"
)

// ShapeRow is one method's call-tree shape statistics.
type ShapeRow struct {
	DescMedian float64
	DescP90    float64
	DescP99    float64
	AncMedian  float64
	AncP99     float64
}

// TreeShapeResult covers Figs. 4 and 5: per-method descendant and
// ancestor counts, plus the paper's aggregate claims.
type TreeShapeResult struct {
	Rows []ShapeRow // sorted by median descendants ascending

	// FracMedianDescUnder13: half of methods have median <= 13 (§2.4).
	FracMedianDescUnder13 float64
	// FracAncP99Under10: half of methods have P99 ancestors < 10.
	FracAncP99Under10 float64
	// MaxDepth observed anywhere.
	MaxDepth float64
}

// minShapeSamples is the minimum per-method shape-sample count for a
// method to appear in the Figs. 4/5 tables: below 20 samples the P99
// descendant estimate is dominated by a single draw, so sparse methods
// (e.g. ones only seen deep inside reconstructed trees) are excluded
// rather than reported with meaningless tails.
const minShapeSamples = 20

// TreeShapeAnalysis computes Figs. 4/5 from the per-method shape samples
// this sink accumulated.
func (k *ReportSink) TreeShapeAnalysis() *TreeShapeResult {
	res := &TreeShapeResult{}
	for _, name := range sortedKeys(k.desc) {
		desc := k.desc[name]
		anc := k.anc[name]
		if desc == nil || desc.Len() < minShapeSamples {
			continue
		}
		row := ShapeRow{
			DescMedian: desc.Quantile(0.5),
			DescP90:    desc.Quantile(0.9),
			DescP99:    desc.Quantile(0.99),
		}
		if anc != nil && anc.Len() > 0 {
			row.AncMedian = anc.Quantile(0.5)
			row.AncP99 = anc.Quantile(0.99)
			if m := anc.Quantile(1); m > res.MaxDepth {
				res.MaxDepth = m
			}
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].DescMedian < res.Rows[j].DescMedian })
	if n := len(res.Rows); n > 0 {
		under13, ancUnder10 := 0, 0
		for _, r := range res.Rows {
			if r.DescMedian <= 13 {
				under13++
			}
			if r.AncP99 < 10 {
				ancUnder10++
			}
		}
		res.FracMedianDescUnder13 = float64(under13) / float64(n)
		res.FracAncP99Under10 = float64(ancUnder10) / float64(n)
	}
	return res
}

// WiderThanDeep reports whether the fleet's trees are wider than deep:
// the median-method P99 descendant count exceeds the median-method P99
// ancestor count by a wide margin.
func (r *TreeShapeResult) WiderThanDeep() bool {
	if len(r.Rows) == 0 {
		return false
	}
	desc := stats.NewSample(len(r.Rows))
	anc := stats.NewSample(len(r.Rows))
	for _, row := range r.Rows {
		desc.Add(row.DescP99)
		anc.Add(row.AncP99)
	}
	return desc.Quantile(0.5) > 2*anc.Quantile(0.5)
}

// Render formats Figs. 4 and 5.
func (r *TreeShapeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.4/5  Call-tree shape (%d methods)\n", len(r.Rows))
	fmt.Fprintf(&b, "  methods with median descendants <= 13: %.1f%%\n", r.FracMedianDescUnder13*100)
	fmt.Fprintf(&b, "  methods with P99 ancestors < 10:       %.1f%%\n", r.FracAncP99Under10*100)
	fmt.Fprintf(&b, "  max observed depth: %.0f   wider-than-deep: %v\n", r.MaxDepth, r.WiderThanDeep())
	fmt.Fprintf(&b, "  %-8s %10s %10s %10s %8s %8s\n", "methods", "desc P50", "desc P90", "desc P99", "anc P50", "anc P99")
	step := len(r.Rows) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Rows); i += step {
		row := r.Rows[i]
		fmt.Fprintf(&b, "  rank%-4d %10.0f %10.0f %10.0f %8.0f %8.0f\n",
			i, row.DescMedian, row.DescP90, row.DescP99, row.AncMedian, row.AncP99)
	}
	return b.String()
}
