package core

import (
	"fmt"
	"sort"
	"strings"

	"rpcscale/internal/trace"
)

// GraphShapeResult covers the call-graph DAG figures: the graph-size
// CCDF, the depth-vs-width joint distribution, fan-in prevalence, motif
// frequency, and the per-tier span census ("Complexity at Scale"-style
// graph characterization on top of the paper's tree figures).
type GraphShapeResult struct {
	// Graphs is how many call graphs were summarized.
	Graphs uint64

	// Size quantiles over graph node counts.
	SizeP50, SizeP90, SizeP99, SizeMax float64
	// SizeCCDF[i] is the fraction of graphs with at least SizeThresholds[i]
	// nodes.
	SizeThresholds []int
	SizeCCDF       []float64

	// FanInGraphFrac is the fraction of graphs with at least one fan-in
	// edge (i.e. true DAGs rather than trees).
	FanInGraphFrac float64
	// FanInEdgesPerGraph is the mean count of extra in-edges per graph.
	FanInEdgesPerGraph float64
	// SharedNodes is the total count of nodes with more than one parent.
	SharedNodes uint64

	// DepthWidth maps primary-tree depth to graph counts per log2 width
	// bucket (bucket b covers widths [2^(b-1), 2^b)).
	DepthWidth []DepthWidthRow

	// MotifNodes counts graph nodes by motif kind (index trace.Motif).
	MotifNodes [trace.NumMotifs]uint64

	// CensusSpans is the size of the per-span census; TierSpans and
	// MotifSpans split it by tier and motif.
	CensusSpans uint64
	TierSpans   [trace.NumTiers]uint64
	MotifSpans  [trace.NumMotifs]uint64
}

// DepthWidthRow is one depth's slice of the joint distribution.
type DepthWidthRow struct {
	Depth  int
	Widths []uint64 // graphs per log2 width bucket
	Total  uint64
}

// GraphShapeAnalysis computes the call-graph figures from the graph
// summaries and span census this sink accumulated.
func (k *ReportSink) GraphShapeAnalysis() *GraphShapeResult {
	a := &k.graph
	res := &GraphShapeResult{
		Graphs:      a.graphs,
		SharedNodes: a.sharedNodes,
		MotifNodes:  a.motifNodes,
		CensusSpans: a.censusSpans,
		TierSpans:   a.tierSpans,
		MotifSpans:  a.motifSpans,
	}
	if a.graphs == 0 {
		return res
	}
	res.SizeP50 = a.size.Quantile(0.5)
	res.SizeP90 = a.size.Quantile(0.9)
	res.SizeP99 = a.size.Quantile(0.99)
	res.SizeMax = a.size.Max()
	for t := 2; float64(t) <= res.SizeMax && len(res.SizeThresholds) < 12; t *= 4 {
		res.SizeThresholds = append(res.SizeThresholds, t)
		res.SizeCCDF = append(res.SizeCCDF,
			float64(a.size.CountAbove(float64(t)-0.5))/float64(a.graphs))
	}
	res.FanInGraphFrac = float64(a.fanInGraphs) / float64(a.graphs)
	res.FanInEdgesPerGraph = float64(a.fanInEdges) / float64(a.graphs)

	byDepth := make(map[int][]uint64)
	for key, n := range a.depthWidth {
		depth, wb := key[0], key[1]
		row := byDepth[depth]
		for len(row) <= wb {
			row = append(row, 0)
		}
		row[wb] += n
		byDepth[depth] = row
	}
	depths := make([]int, 0, len(byDepth))
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		row := DepthWidthRow{Depth: d, Widths: byDepth[d]}
		for _, n := range row.Widths {
			row.Total += n
		}
		res.DepthWidth = append(res.DepthWidth, row)
	}
	return res
}

// Render formats the call-graph shape figure.
func (r *GraphShapeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.G  Call-graph shape (%d graphs, DAG model)\n", r.Graphs)
	if r.Graphs == 0 {
		// The per-span census below still renders: an out-of-core dump
		// scan has no graph summaries but sees every span's tier/motif.
		b.WriteString("  (no graph summaries: volume-only run or pre-DAG dump)\n")
		r.renderCensus(&b)
		return b.String()
	}
	fmt.Fprintf(&b, "  graph size (spans): P50 %.0f  P90 %.0f  P99 %.0f  max %.0f\n",
		r.SizeP50, r.SizeP90, r.SizeP99, r.SizeMax)
	if len(r.SizeThresholds) > 0 {
		b.WriteString("  size CCDF:")
		for i, t := range r.SizeThresholds {
			fmt.Fprintf(&b, "  >=%d %.1f%%", t, r.SizeCCDF[i]*100)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  graphs with fan-in: %.1f%%   fan-in edges/graph: %.2f   shared nodes: %d\n",
		r.FanInGraphFrac*100, r.FanInEdgesPerGraph, r.SharedNodes)

	if len(r.DepthWidth) > 0 {
		maxBuckets := 0
		for _, row := range r.DepthWidth {
			if len(row.Widths) > maxBuckets {
				maxBuckets = len(row.Widths)
			}
		}
		b.WriteString("  depth x max-width (graphs):\n")
		b.WriteString("  depth")
		for wb := 0; wb < maxBuckets; wb++ {
			lo := 0
			if wb > 0 {
				lo = 1 << (wb - 1)
			}
			fmt.Fprintf(&b, " %8s", fmt.Sprintf("w>=%d", lo))
		}
		b.WriteByte('\n')
		for _, row := range r.DepthWidth {
			fmt.Fprintf(&b, "  %5d", row.Depth)
			for wb := 0; wb < maxBuckets; wb++ {
				n := uint64(0)
				if wb < len(row.Widths) {
					n = row.Widths[wb]
				}
				fmt.Fprintf(&b, " %8d", n)
			}
			b.WriteByte('\n')
		}
	}

	b.WriteString("  motif nodes:")
	any := false
	for m := 1; m < trace.NumMotifs; m++ {
		fmt.Fprintf(&b, "  %s %d", trace.Motif(m).String(), r.MotifNodes[m])
		if r.MotifNodes[m] > 0 {
			any = true
		}
	}
	if !any {
		b.WriteString("  (none: tree-shaped run)")
	}
	b.WriteByte('\n')

	r.renderCensus(&b)
	return b.String()
}

// renderCensus appends the per-span tier/motif census lines.
func (r *GraphShapeResult) renderCensus(b *strings.Builder) {
	if r.CensusSpans == 0 {
		return
	}
	fmt.Fprintf(b, "  span census (%d spans):", r.CensusSpans)
	for t := 0; t < trace.NumTiers; t++ {
		fmt.Fprintf(b, "  %s %.1f%%", trace.Tier(t).String(),
			100*float64(r.TierSpans[t])/float64(r.CensusSpans))
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "  motif spans:")
	for m := 1; m < trace.NumMotifs; m++ {
		fmt.Fprintf(b, "  %s %.2f%%", trace.Motif(m).String(),
			100*float64(r.MotifSpans[m])/float64(r.CensusSpans))
	}
	b.WriteByte('\n')
}
