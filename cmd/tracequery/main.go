// Command tracequery loads a span dump produced by cmd/fleetgen and
// answers ad-hoc questions: per-method percentiles, call-graph shapes for
// a trace ID, and top-k listings — a miniature of the Dapper query UI.
//
// Usage:
//
//	tracequery -in spans.jsonl method <name>     per-method summary
//	tracequery -in spans.jsonl trace <trace-id>  print one call graph
//	tracequery -in spans.jsonl top [k]           top methods by calls
//	tracequery -in spans.jsonl errors            error mix
//	tracequery -in spans.jsonl motifs            motif/tier census
//
// -motif restricts method/top/errors to spans carrying one motif tag
// (fanin, cache_hit, cache_miss, sidecar, replica). The trace command
// prints the DAG: extra in-edges recorded in linked_parents are shown as
// "also under" annotations on shared nodes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

func load(path string) ([]*trace.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadSpans(f)
}

func main() {
	in := flag.String("in", "spans.jsonl", "span dump from fleetgen")
	motif := flag.String("motif", "", "restrict method/top/errors to spans with this motif tag (fanin, cache_hit, cache_miss, sidecar, replica)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracequery -in spans.jsonl [-motif tag] {method <name> | trace <id> | top [k] | errors | motifs}")
		os.Exit(2)
	}
	spans, err := load(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *motif != "" && args[0] != "trace" && args[0] != "motifs" {
		want := trace.ParseMotif(*motif)
		if want == trace.MotifNone {
			fmt.Fprintf(os.Stderr, "unknown motif %q\n", *motif)
			os.Exit(2)
		}
		var kept []*trace.Span
		for _, s := range spans {
			if s.Motif == want {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			fmt.Printf("no spans with motif %s\n", want)
			return
		}
		spans = kept
	}
	switch args[0] {
	case "method":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "method requires a name")
			os.Exit(2)
		}
		methodSummary(spans, args[1])
	case "trace":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "trace requires an id")
			os.Exit(2)
		}
		id, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad trace id:", err)
			os.Exit(2)
		}
		printTree(spans, trace.TraceID(id))
	case "top":
		k := 20
		if len(args) > 1 {
			if v, err := strconv.Atoi(args[1]); err == nil {
				k = v
			}
		}
		topMethods(spans, k)
	case "errors":
		errorMix(spans)
	case "motifs":
		motifCensus(spans)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", args[0])
		os.Exit(2)
	}
}

func methodSummary(spans []*trace.Span, method string) {
	h := stats.NewLatencyHist()
	var calls, errs int
	for _, s := range spans {
		if s.Method != method {
			continue
		}
		calls++
		if s.Err.IsError() {
			errs++
			continue
		}
		h.Add(float64(s.Breakdown.Total()))
	}
	if calls == 0 {
		fmt.Printf("no spans for %s\n", method)
		return
	}
	sum := h.Summarize()
	fmt.Printf("%s: %d calls, %d errors\n", method, calls, errs)
	fmt.Printf("  P1 %v  P50 %v  P90 %v  P99 %v  max %v\n",
		time.Duration(int64(sum.P1)).Round(time.Microsecond),
		time.Duration(int64(sum.P50)).Round(time.Microsecond),
		time.Duration(int64(sum.P90)).Round(time.Microsecond),
		time.Duration(int64(sum.P99)).Round(time.Microsecond),
		time.Duration(int64(sum.Max)).Round(time.Microsecond))
}

func printTree(spans []*trace.Span, id trace.TraceID) {
	var subset []*trace.Span
	for _, s := range spans {
		if s.TraceID == id {
			subset = append(subset, s)
		}
	}
	if len(subset) == 0 {
		fmt.Printf("no spans for trace %d\n", id)
		return
	}
	for _, g := range trace.BuildGraphs(subset) {
		if st := g.Stat(); st.FanInEdges > 0 {
			fmt.Printf("graph: %d spans, %d fan-in edges, depth %d, width %d\n",
				st.Spans, st.FanInEdges, st.Depth, st.Width)
		}
		var walk func(n *trace.GraphNode, indent string)
		walk = func(n *trace.GraphNode, indent string) {
			s := n.Span
			status := ""
			if s.Err.IsError() {
				status = "  [" + s.Err.String() + "]"
			}
			if s.Motif != trace.MotifNone {
				status += "  {" + s.Motif.String() + "}"
			}
			if len(s.LinkedParents) > 0 {
				status += fmt.Sprintf("  also under %d more parent(s)", len(s.LinkedParents))
			}
			fmt.Printf("%s%s  %v  (%s -> %s)%s\n", indent, s.Method,
				s.Breakdown.Total().Round(time.Microsecond),
				s.ClientCluster, s.ServerCluster, status)
			for _, c := range n.Children {
				walk(c, indent+"  ")
			}
		}
		walk(g.Root, "")
	}
}

// motifCensus prints the tier and motif composition of the dump: how many
// spans carry each motif tag and each tier label.
func motifCensus(spans []*trace.Span) {
	var motifs [trace.NumMotifs]int
	var tiers [trace.NumTiers]int
	linked := 0
	for _, s := range spans {
		if int(s.Motif) < trace.NumMotifs {
			motifs[s.Motif]++
		}
		if int(s.Tier) < trace.NumTiers {
			tiers[s.Tier]++
		}
		linked += len(s.LinkedParents)
	}
	fmt.Printf("%d spans, %d fan-in edges\n", len(spans), linked)
	fmt.Println("tiers:")
	for t := 0; t < trace.NumTiers; t++ {
		fmt.Printf("  %-10s %8d  (%5.2f%%)\n", trace.Tier(t), tiers[t],
			100*float64(tiers[t])/float64(len(spans)))
	}
	fmt.Println("motifs:")
	for m := 1; m < trace.NumMotifs; m++ {
		fmt.Printf("  %-10s %8d  (%5.2f%%)\n", trace.Motif(m), motifs[m],
			100*float64(motifs[m])/float64(len(spans)))
	}
}

func topMethods(spans []*trace.Span, k int) {
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Method]++
	}
	type kv struct {
		m string
		n int
	}
	var sorted []kv
	for m, n := range counts {
		sorted = append(sorted, kv{m, n})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].n > sorted[j].n })
	if k > len(sorted) {
		k = len(sorted)
	}
	for i := 0; i < k; i++ {
		fmt.Printf("%6.2f%%  %s\n", 100*float64(sorted[i].n)/float64(len(spans)), sorted[i].m)
	}
}

func errorMix(spans []*trace.Span) {
	var errs int
	counts := make(map[trace.ErrorCode]int)
	for _, s := range spans {
		if s.Err.IsError() {
			errs++
			counts[s.Err]++
		}
	}
	fmt.Printf("%d/%d spans errored (%.2f%%)\n", errs, len(spans),
		100*float64(errs)/float64(len(spans)))
	for code, n := range counts {
		fmt.Printf("  %-18s %6.2f%%\n", code, 100*float64(n)/float64(errs))
	}
}
