package trace

import (
	"testing"
)

// diamondSpans builds the canonical DAG: root 1 with children 2 and 3,
// and a shared leaf 4 whose primary parent is 2 with an extra in-edge
// from 3.
func diamondSpans() []*Span {
	mk := func(id, parent SpanID) *Span {
		return &Span{TraceID: 7, SpanID: id, ParentID: parent, Method: "m", Service: "s"}
	}
	shared := mk(4, 2)
	shared.LinkedParents = []SpanID{3}
	shared.Motif = MotifFanIn
	return []*Span{mk(1, 0), mk(2, 1), mk(3, 1), shared}
}

// buildSpanTree constructs a simple trace: root -> (a, b), a -> (c, d).
func buildSpanTree() []*Span {
	return []*Span{
		{TraceID: 1, SpanID: 1, Method: "root"},
		{TraceID: 1, SpanID: 2, ParentID: 1, Method: "a"},
		{TraceID: 1, SpanID: 3, ParentID: 1, Method: "b"},
		{TraceID: 1, SpanID: 4, ParentID: 2, Method: "c"},
		{TraceID: 1, SpanID: 5, ParentID: 2, Method: "d"},
	}
}

// TestBuildGraphsSpanningTree covers the primary-parent reconstruction:
// which spans become roots and how large and deep each root's tree is.
func TestBuildGraphsSpanningTree(t *testing.T) {
	type want struct {
		root        string
		spans, deep int
	}
	for _, tc := range []struct {
		name  string
		spans []*Span
		want  []want
	}{
		{"basic shape", buildSpanTree(), []want{{"root", 5, 2}}},
		{"multiple traces", append(buildSpanTree(),
			&Span{TraceID: 2, SpanID: 1, Method: "other-root"},
			&Span{TraceID: 2, SpanID: 2, ParentID: 1, Method: "other-child"},
		), []want{{"root", 5, 2}, {"other-root", 2, 1}}},
		{"orphan promoted", []*Span{
			{TraceID: 1, SpanID: 10, ParentID: 99, Method: "orphan"}, // parent missing
			{TraceID: 1, SpanID: 11, ParentID: 10, Method: "child-of-orphan"},
		}, []want{{"orphan", 2, 1}}},
		// A span whose parent ID equals its own span ID must not create a cycle.
		{"self parent", []*Span{{TraceID: 1, SpanID: 7, ParentID: 7, Method: "self"}},
			[]want{{"self", 1, 0}}},
		// Nor may a repeated ID hang a node under its own descendant
		// (2 -> 3 -> 2): the repeat is left out.
		{"repeated span ID", []*Span{
			{TraceID: 1, SpanID: 1, Method: "root"},
			{TraceID: 1, SpanID: 2, ParentID: 1, Method: "a"},
			{TraceID: 1, SpanID: 2, ParentID: 3, Method: "a-again"},
			{TraceID: 1, SpanID: 3, ParentID: 2, Method: "b"},
		}, []want{{"root", 3, 2}}},
		// A parent cycle has no root, so it forms no graph.
		{"parent cycle", []*Span{
			{TraceID: 1, SpanID: 1, ParentID: 2, Method: "a"},
			{TraceID: 1, SpanID: 2, ParentID: 1, Method: "b"},
		}, nil},
	} {
		graphs := BuildGraphs(tc.spans)
		if len(graphs) != len(tc.want) {
			t.Errorf("%s: got %d graphs, want %d", tc.name, len(graphs), len(tc.want))
			continue
		}
		for i, w := range tc.want {
			g := graphs[i]
			got := want{g.Root.Span.Method, g.Spans, g.Depth()}
			if got != w {
				t.Errorf("%s: graph %d = %+v, want %+v", tc.name, i, got, w)
			}
			if g.Root.Descendants != w.spans-1 {
				t.Errorf("%s: root descendants = %d, want %d", tc.name, g.Root.Descendants, w.spans-1)
			}
		}
	}
}

func TestGraphWalkAncestorAndDescendantCounts(t *testing.T) {
	type counts struct{ ancestors, descendants int }
	got := map[string]counts{}
	BuildGraphs(buildSpanTree())[0].Walk(func(n *GraphNode, depth int) {
		got[n.Span.Method] = counts{depth, n.Descendants}
	})
	want := map[string]counts{"root": {0, 4}, "a": {1, 2}, "b": {1, 0}, "c": {2, 0}, "d": {2, 0}}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %+v, want %+v", k, got[k], v)
		}
	}
}

func TestBuildGraphsDiamond(t *testing.T) {
	graphs := BuildGraphs(diamondSpans())
	if len(graphs) != 1 {
		t.Fatalf("got %d graphs, want 1", len(graphs))
	}
	g := graphs[0]
	if g.Spans != 4 {
		t.Errorf("Spans = %d, want 4", g.Spans)
	}
	if got := g.FanInEdges(); got != 1 {
		t.Errorf("FanInEdges = %d, want 1", got)
	}
	if got := g.SharedNodes(); got != 1 {
		t.Errorf("SharedNodes = %d, want 1", got)
	}
	if got := g.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	if got := g.Width(); got != 2 {
		t.Errorf("Width = %d, want 2", got)
	}
	shared := g.Nodes[4]
	if shared == nil {
		t.Fatal("shared node missing")
	}
	if len(shared.Parents) != 2 || !shared.Shared() {
		t.Errorf("shared node has %d parents, want 2", len(shared.Parents))
	}
	// Primary parent first, linked parent after.
	if shared.Parents[0].Span.SpanID != 2 || shared.Parents[1].Span.SpanID != 3 {
		t.Errorf("parent order = [%d %d], want [2 3]",
			shared.Parents[0].Span.SpanID, shared.Parents[1].Span.SpanID)
	}
	if n3 := g.Nodes[3]; len(n3.LinkedChildren) != 1 || n3.LinkedChildren[0] != shared {
		t.Error("linked child edge missing on node 3")
	}
}

func TestBuildGraphsDropsBogusLinks(t *testing.T) {
	spans := diamondSpans()
	// Missing target, self-loop, and duplicate-of-primary must all drop.
	spans[3].LinkedParents = []SpanID{999, 4, 2, 3, 3}
	g := BuildGraphs(spans)[0]
	if got := g.FanInEdges(); got != 1 {
		t.Errorf("FanInEdges = %d, want 1 (bogus links dropped)", got)
	}
}

func TestBuildGraphsTreeDegeneratesToZeroFanIn(t *testing.T) {
	spans := diamondSpans()
	spans[3].LinkedParents = nil
	g := BuildGraphs(spans)[0]
	if g.FanInEdges() != 0 || g.SharedNodes() != 0 {
		t.Errorf("tree-shaped graph reports fan-in: edges=%d shared=%d",
			g.FanInEdges(), g.SharedNodes())
	}
}

func TestBuildGraphsSplitsByTrace(t *testing.T) {
	spans := diamondSpans()
	other := &Span{TraceID: 8, SpanID: 10, Method: "m", Service: "s"}
	graphs := BuildGraphs(append(spans, other))
	if len(graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(graphs))
	}
}

func TestGraphWalkVisitsEveryNodeOnce(t *testing.T) {
	g := BuildGraphs(diamondSpans())[0]
	seen := map[SpanID]int{}
	g.Walk(func(n *GraphNode, depth int) { seen[n.Span.SpanID]++ })
	if len(seen) != 4 {
		t.Fatalf("walk visited %d nodes, want 4", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("node %d visited %d times", id, n)
		}
	}
}

func TestTierMotifStrings(t *testing.T) {
	for ti := 0; ti < NumTiers; ti++ {
		if ParseTier(Tier(ti).String()) != Tier(ti) {
			t.Errorf("tier %d does not round-trip", ti)
		}
	}
	for m := 0; m < NumMotifs; m++ {
		if ParseMotif(Motif(m).String()) != Motif(m) {
			t.Errorf("motif %d does not round-trip", m)
		}
	}
	if ParseTier("bogus") != TierStateless || ParseMotif("bogus") != MotifNone {
		t.Error("unknown names must fall back to the zero value")
	}
}
