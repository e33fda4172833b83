// Command tracequery streams a span dump produced by cmd/fleetgen and
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
// Each query is one pass over the dump that keeps only what its answer
// needs: method one latency histogram, trace the named trace's spans, top
// a count per method, errors a count per error code, and motifs a count
// per tier and motif tag. The answer is printed once the whole dump has
// been read, so a malformed record prints only its error.
//
// -motif restricts method/top/errors to spans carrying one motif tag
// (fanin, cache_hit, cache_miss, sidecar, replica). The trace command
// prints the DAG: extra in-edges recorded in linked_parents are shown as
// "also under" annotations on shared nodes.
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/trace"
)

// query answers one question in a single pass over spans.
type query func(spans iter.Seq[*trace.Span], w io.Writer)

// errStop ends the scan when a query stops ranging over its spans early.
var errStop = errors.New("tracequery: query stopped reading")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run answers the query args name and returns the exit status: 0 with an
// answer, 1 when the dump cannot be read or holds no spans, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracequery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "spans.jsonl", "span dump from fleetgen")
	motif := fs.String("motif", "", "restrict method/top/errors to spans with this motif tag (fanin, cache_hit, cache_miss, sidecar, replica)")
	if fs.Parse(args) != nil {
		return 2
	}
	q, want, err := parseQuery(fs.Args(), *motif)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()

	var read, kept int
	spans := func(yield func(*trace.Span) bool) {
		err = trace.ScanSpans(f, func(s *trace.Span) error {
			read++
			if want == trace.MotifNone || s.Motif == want {
				kept++
				if !yield(s) {
					return errStop
				}
			}
			return nil
		})
	}
	var out bytes.Buffer
	q(spans, &out)
	if err == nil && read == 0 {
		err = errors.New("tracequery: span dump is empty")
	}
	if err != nil && err != errStop {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if kept == 0 {
		fmt.Fprintf(stdout, "no spans with motif %s\n", want)
		return 0
	}
	stdout.Write(out.Bytes())
	return 0
}

// parseQuery turns the arguments after the flags into a query, and the
// -motif tag into the filter it applies (MotifNone for none).
func parseQuery(args []string, motif string) (query, trace.Motif, error) {
	if len(args) == 0 {
		return nil, 0, errors.New("usage: tracequery -in spans.jsonl [-motif tag] {method <name> | trace <id> | top [k] | errors | motifs}")
	}
	want := trace.MotifNone
	if motif != "" && args[0] != "trace" && args[0] != "motifs" {
		if want = trace.ParseMotif(motif); want == trace.MotifNone {
			return nil, 0, fmt.Errorf("unknown motif %q", motif)
		}
	}
	switch args[0] {
	case "method":
		if len(args) < 2 {
			return nil, 0, errors.New("method requires a name")
		}
		return func(spans iter.Seq[*trace.Span], w io.Writer) { methodSummary(spans, w, args[1]) }, want, nil
	case "trace":
		if len(args) < 2 {
			return nil, 0, errors.New("trace requires an id")
		}
		id, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad trace id: %w", err)
		}
		return func(spans iter.Seq[*trace.Span], w io.Writer) { printTree(spans, w, trace.TraceID(id)) }, want, nil
	case "top":
		k := 20
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 1 {
				return nil, 0, fmt.Errorf("top: k must be a positive integer, got %q", args[1])
			}
			k = v
		}
		return func(spans iter.Seq[*trace.Span], w io.Writer) { topMethods(spans, w, k) }, want, nil
	case "errors":
		return errorMix, want, nil
	case "motifs":
		return motifCensus, want, nil
	}
	return nil, 0, fmt.Errorf("unknown command %q", args[0])
}

func methodSummary(spans iter.Seq[*trace.Span], w io.Writer, method string) {
	h := stats.NewLatencyHist()
	var calls, errs int
	for s := range spans {
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
		fmt.Fprintf(w, "no spans for %s\n", method)
		return
	}
	sum := h.Summarize()
	fmt.Fprintf(w, "%s: %d calls, %d errors\n", method, calls, errs)
	fmt.Fprintf(w, "  P1 %v  P50 %v  P90 %v  P99 %v  max %v\n",
		time.Duration(int64(sum.P1)).Round(time.Microsecond),
		time.Duration(int64(sum.P50)).Round(time.Microsecond),
		time.Duration(int64(sum.P90)).Round(time.Microsecond),
		time.Duration(int64(sum.P99)).Round(time.Microsecond),
		time.Duration(int64(sum.Max)).Round(time.Microsecond))
}

// printTree keeps the spans of one trace, wherever in the dump they sit,
// and prints its call graphs.
func printTree(spans iter.Seq[*trace.Span], w io.Writer, id trace.TraceID) {
	var subset []*trace.Span
	for s := range spans {
		if s.TraceID == id {
			subset = append(subset, s)
		}
	}
	if len(subset) == 0 {
		fmt.Fprintf(w, "no spans for trace %d\n", id)
		return
	}
	for _, g := range trace.BuildGraphs(subset) {
		if st := g.Stat(); st.FanInEdges > 0 {
			fmt.Fprintf(w, "graph: %d spans, %d fan-in edges, depth %d, width %d\n",
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
			fmt.Fprintf(w, "%s%s  %v  (%s -> %s)%s\n", indent, s.Method,
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
func motifCensus(spans iter.Seq[*trace.Span], w io.Writer) {
	var motifs [trace.NumMotifs]int
	var tiers [trace.NumTiers]int
	n, linked := 0, 0
	for s := range spans {
		n++
		if int(s.Motif) < trace.NumMotifs {
			motifs[s.Motif]++
		}
		if int(s.Tier) < trace.NumTiers {
			tiers[s.Tier]++
		}
		linked += len(s.LinkedParents)
	}
	fmt.Fprintf(w, "%d spans, %d fan-in edges\n", n, linked)
	fmt.Fprintln(w, "tiers:")
	for t := 0; t < trace.NumTiers; t++ {
		fmt.Fprintf(w, "  %-10s %8d  (%5.2f%%)\n", trace.Tier(t), tiers[t],
			100*float64(tiers[t])/float64(n))
	}
	fmt.Fprintln(w, "motifs:")
	for m := 1; m < trace.NumMotifs; m++ {
		fmt.Fprintf(w, "  %-10s %8d  (%5.2f%%)\n", trace.Motif(m), motifs[m],
			100*float64(motifs[m])/float64(n))
	}
}

// topMethods prints the k most-called methods, ties in name order.
func topMethods(spans iter.Seq[*trace.Span], w io.Writer, k int) {
	counts := make(map[string]int)
	n := 0
	for s := range spans {
		n++
		counts[s.Method]++
	}
	methods := slices.Collect(maps.Keys(counts))
	slices.SortFunc(methods, func(a, b string) int { return cmp.Or(counts[b]-counts[a], strings.Compare(a, b)) })
	for _, m := range methods[:min(k, len(methods))] {
		fmt.Fprintf(w, "%6.2f%%  %s\n", 100*float64(counts[m])/float64(n), m)
	}
}

// errorMix prints the share of spans that errored and each code's share
// of the errors, in ErrorCode order.
func errorMix(spans iter.Seq[*trace.Span], w io.Writer) {
	var counts [trace.NumErrorCodes]int
	n, errs := 0, 0
	for s := range spans {
		n++
		if s.Err.IsError() {
			errs++
			counts[s.Err]++
		}
	}
	fmt.Fprintf(w, "%d/%d spans errored (%.2f%%)\n", errs, n,
		100*float64(errs)/float64(n))
	for code, c := range counts {
		if c > 0 {
			fmt.Fprintf(w, "  %-18s %6.2f%%\n", trace.ErrorCode(code), 100*float64(c)/float64(errs))
		}
	}
}
