package trace

// Graph is one reconstructed RPC call graph. It preserves every in-edge:
// the primary parent link (ParentID) forms a spanning tree — the tree the
// paper's Figs. 4/5 are defined over — and LinkedParents add the fan-in
// edges that make production call graphs DAGs ("Complexity at Scale":
// shared subtrees reached from multiple parents).
type Graph struct {
	Root  *GraphNode
	Spans int // nodes in the graph

	// Nodes indexes every node by span ID for O(1) lookups.
	Nodes map[SpanID]*GraphNode
}

// GraphNode is one RPC within a graph. Children follow primary-parent
// edges (the spanning tree); LinkedChildren are the extra out-edges to
// shared dependencies whose primary parent is elsewhere.
type GraphNode struct {
	Span           *Span
	Children       []*GraphNode
	LinkedChildren []*GraphNode

	// Parents holds every in-edge, primary first. len(Parents) > 1 marks
	// a shared dependency (a fan-in node).
	Parents []*GraphNode

	// Descendants is the number of RPCs beneath this node in the spanning
	// tree (excluding the node itself).
	Descendants int
}

// Shared reports whether the node has more than one parent.
func (n *GraphNode) Shared() bool { return len(n.Parents) > 1 }

// GraphStat summarizes the shape of one call graph: the raw material of
// the graph-shape figures (size CCDF, depth-vs-width joint distribution,
// motif frequency). It is a plain value — integer counts only — so
// accumulating GraphStats is invariant to shard routing and fold order,
// which is what keeps the streaming and materialized reports
// byte-identical. The generator accounts it in flight; Graph.Stat reads it
// off a rebuilt graph.
type GraphStat struct {
	// Spans is the number of nodes in the graph (shared dependencies
	// count once however many parents reach them).
	Spans int
	// Depth is the height of the primary-parent spanning tree (0 for a
	// single node).
	Depth int
	// Width is the maximum node count at any single primary depth.
	Width int
	// FanInEdges counts in-edges beyond the spanning tree (0 for trees).
	FanInEdges int
	// SharedNodes counts nodes with more than one parent.
	SharedNodes int
	// Motifs counts nodes by motif kind (index Motif; index 0 is unused —
	// plain calls are Spans minus the rest).
	Motifs [NumMotifs]uint32
}

// Stat summarizes the graph in one walk of its spanning tree, which
// visits every node once. Depth and Width follow primary edges only, so
// they are well-defined even when fan-in edges would otherwise create
// multiple path lengths.
func (g *Graph) Stat() GraphStat {
	st := GraphStat{Spans: g.Spans}
	var perDepth []int
	g.Walk(func(n *GraphNode, depth int) {
		if depth == len(perDepth) {
			perDepth = append(perDepth, 0)
			st.Depth = depth
		}
		perDepth[depth]++
		st.Width = max(st.Width, perDepth[depth])
		if n.Shared() {
			st.FanInEdges += len(n.Parents) - 1
			st.SharedNodes++
		}
		if m := n.Span.Motif; m != MotifNone && int(m) < NumMotifs {
			st.Motifs[m]++
		}
	})
	return st
}

// Walk visits every node of the spanning tree pre-order with its primary
// depth. Fan-in edges are not traversed (each node is visited once).
func (g *Graph) Walk(fn func(n *GraphNode, depth int)) {
	if g.Root == nil {
		return
	}
	var walk func(n *GraphNode, depth int)
	walk = func(n *GraphNode, depth int) {
		fn(n, depth)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(g.Root, 0)
}

// BuildGraphs reconstructs call graphs from a flat span collection. The
// primary parent link (ParentID) forms the spanning tree, children in
// insertion order; spans whose primary parent is missing (e.g., dropped by
// sampling) or is the span itself become roots of partial graphs, which is
// how Dapper handles incomplete traces. Every resolvable LinkedParents
// entry adds a fan-in edge on top. Linked parents that are missing from
// the collection, would self-loop, duplicate the primary edge, or repeat
// an already-recorded in-edge are dropped. A span repeating an earlier
// (trace, span) ID is left out, so every node has at most one primary
// parent and the walk from a root cannot loop.
func BuildGraphs(spans []*Span) []*Graph {
	type key struct {
		t TraceID
		s SpanID
	}
	nodes := make(map[key]*GraphNode, len(spans))
	for _, s := range spans {
		if k := (key{s.TraceID, s.SpanID}); nodes[k] == nil {
			nodes[k] = &GraphNode{Span: s}
		}
	}
	var roots []*GraphNode
	for _, s := range spans {
		n := nodes[key{s.TraceID, s.SpanID}]
		if n.Span != s {
			continue
		}
		attached := false
		if s.ParentID != 0 {
			if p, ok := nodes[key{s.TraceID, s.ParentID}]; ok && p != n {
				p.Children = append(p.Children, n)
				n.Parents = append(n.Parents, p)
				attached = true
			}
		}
		if !attached {
			roots = append(roots, n)
		}
		for _, lp := range s.LinkedParents {
			if lp == s.ParentID || lp == s.SpanID {
				continue
			}
			p, ok := nodes[key{s.TraceID, lp}]
			if !ok || p == n {
				continue
			}
			dup := false
			for _, q := range n.Parents {
				if q == p {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			p.LinkedChildren = append(p.LinkedChildren, n)
			n.Parents = append(n.Parents, p)
		}
	}
	graphs := make([]*Graph, 0, len(roots))
	for _, r := range roots {
		g := &Graph{Root: r, Nodes: make(map[SpanID]*GraphNode)}
		var collect func(n *GraphNode) int
		collect = func(n *GraphNode) int {
			g.Nodes[n.Span.SpanID] = n
			for _, c := range n.Children {
				n.Descendants += 1 + collect(c)
			}
			return n.Descendants
		}
		collect(r)
		g.Spans = len(g.Nodes)
		graphs = append(graphs, g)
	}
	return graphs
}
