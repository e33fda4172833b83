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

// FanInEdges returns the number of extra in-edges across the graph: the
// count of (parent, child) links beyond the spanning tree. A tree-shaped
// graph returns 0.
func (g *Graph) FanInEdges() int {
	edges := 0
	for _, n := range g.Nodes {
		if len(n.Parents) > 1 {
			edges += len(n.Parents) - 1
		}
	}
	return edges
}

// SharedNodes returns how many nodes have more than one parent.
func (g *Graph) SharedNodes() int {
	shared := 0
	for _, n := range g.Nodes {
		if n.Shared() {
			shared++
		}
	}
	return shared
}

// Depth returns the height of the spanning tree (a single-node graph has
// depth 0). Depth follows primary edges only, so it is well-defined even
// when fan-in edges would otherwise create multiple path lengths.
func (g *Graph) Depth() int {
	max := 0
	g.Walk(func(_ *GraphNode, depth int) {
		if depth > max {
			max = depth
		}
	})
	return max
}

// Width returns the maximum number of nodes at any single depth of the
// spanning tree — the "how wide" axis of the depth-vs-width joint
// distribution.
func (g *Graph) Width() int {
	var counts []int
	g.Walk(func(_ *GraphNode, depth int) {
		for len(counts) <= depth {
			counts = append(counts, 0)
		}
		counts[depth]++
	})
	width := 0
	for _, c := range counts {
		if c > width {
			width = c
		}
	}
	return width
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
