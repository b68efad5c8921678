package etl

import "slices"

// LongestPath returns the number of nodes on the longest source-to-sink path.
// It is the manageability measure "length of process workflow's longest path"
// of Fig. 1. Returns 0 for an empty or cyclic graph.
func (g *Graph) LongestPath() int {
	order, err := g.TopoSlots()
	if err != nil {
		return 0
	}
	var best int32
	dist := make([]int32, len(g.nodes))
	for _, s := range order {
		d := int32(1)
		for _, p := range g.pred[s] {
			d = max(d, dist[p]+1)
		}
		dist[s] = d
		best = max(best, d)
	}
	return int(best)
}

// CriticalPath returns the node IDs along a maximum-weight source-to-sink
// path, where the weight of a node is given by weight. The simulator uses it
// with per-node execution time to obtain the process cycle time contribution
// of pipelined segments.
func (g *Graph) CriticalPath(weight func(*Node) float64) ([]NodeID, float64) {
	order, err := g.TopoSlots()
	if err != nil {
		return nil, 0
	}
	dist := make([]float64, len(g.nodes))
	prev := make([]int32, len(g.nodes))
	bestSlot := int32(-1)
	best := -1.0
	for _, s := range order {
		w := weight(g.nodes[s])
		d := w
		prev[s] = -1
		for _, p := range g.pred[s] {
			if dist[p]+w > d {
				d = dist[p] + w
				prev[s] = p
			}
		}
		dist[s] = d
		if d > best {
			best, bestSlot = d, s
		}
	}
	if best < 0 {
		return nil, 0
	}
	var path []NodeID
	for s := bestSlot; s >= 0; s = prev[s] {
		path = append(path, g.nodes[s].ID)
	}
	slices.Reverse(path)
	return path, best
}

// Coupling is the manageability measure "coupling of process workflow" of
// Fig. 1: the mean number of connections per node (2|E|/|V|). Higher coupling
// means operations are harder to modify in isolation.
func (g *Graph) Coupling() float64 {
	if g.Len() == 0 {
		return 0
	}
	return 2 * float64(g.EdgeCount()) / float64(g.Len())
}

// MergeCount is the manageability measure "# of merge elements in the process
// model" of Fig. 1: nodes that fuse several incoming branches (in-degree > 1,
// plus explicit merge/union operations).
func (g *Graph) MergeCount() int {
	n := 0
	for s, nd := range g.nodes {
		if nd != nil && (len(g.pred[s]) > 1 || nd.Kind == OpMerge || nd.Kind == OpUnion) {
			n++
		}
	}
	return n
}

// CyclomaticComplexity is |E| - |V| + 2*components, a structural complexity
// proxy used as a detailed manageability metric.
func (g *Graph) CyclomaticComplexity() int {
	return g.EdgeCount() - g.Len() + 2*g.Components()
}

// Components returns the number of weakly connected components: a
// union-find over slots, one union per edge.
func (g *Graph) Components() int {
	parent := make([]int32, len(g.nodes))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	n := g.live
	for s, succ := range g.succ {
		for _, t := range succ {
			if a, b := find(int32(s)), find(t); a != b {
				parent[a] = b
				n--
			}
		}
	}
	return n
}

// UpstreamDistance returns the minimum number of edges from any source
// operation to node id: 0 for a source, an unknown node or a cyclic graph.
// Cleaning-pattern heuristics prefer application points with a small
// upstream distance ("as close as possible to the operations for inputting
// data sources"). They are memoized with the topological order.
func (g *Graph) UpstreamDistance(id NodeID) int {
	s, ok := g.slotOf(id)
	t, err := g.topoOrder()
	if !ok || err != nil {
		return 0
	}
	dist := t.dist.Load()
	if dist == nil {
		d := make([]int32, len(g.nodes))
		for _, x := range t.slots {
			if preds := g.pred[x]; len(preds) > 0 {
				m := d[preds[0]]
				for _, p := range preds[1:] {
					m = min(m, d[p])
				}
				d[x] = m + 1
			}
		}
		dist = &d
		t.dist.Store(dist)
	}
	return int((*dist)[s])
}

// DownstreamCheckpointFree reports whether no checkpoint operation exists
// within maxHops edges downstream of id. The AddCheckpoint prerequisite uses
// it to avoid stacking savepoints.
func (g *Graph) DownstreamCheckpointFree(id NodeID, maxHops int) bool {
	return g.checkpointFree(id, maxHops, g.succ)
}

// UpstreamCheckpointFree is the mirror of DownstreamCheckpointFree, looking
// at predecessors.
func (g *Graph) UpstreamCheckpointFree(id NodeID, maxHops int) bool {
	return g.checkpointFree(id, maxHops, g.pred)
}

// checkpointFree is a breadth-first search from id along adj (succ or pred)
// that fails on the first checkpoint within maxHops edges.
func (g *Graph) checkpointFree(id NodeID, maxHops int, adj [][]int32) bool {
	start, ok := g.slotOf(id)
	if !ok {
		return true
	}
	// hops[s] is 1 + the distance of a visited slot, 0 for one not seen.
	hops := make([]int32, len(g.nodes))
	hops[start] = 1
	queue := []int32{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if int(hops[cur]) > maxHops {
			continue
		}
		for _, s := range adj[cur] {
			if hops[s] != 0 {
				continue
			}
			hops[s] = hops[cur] + 1
			if g.nodes[s].Kind == OpCheckpoint {
				return false
			}
			queue = append(queue, s)
		}
	}
	return true
}

// InputSchema returns the effective input schema of a node: the union of its
// predecessors' output schemata (first predecessor first). For source nodes
// it is empty.
func (g *Graph) InputSchema(id NodeID) Schema {
	var s Schema
	for _, p := range g.adjOf(g.pred, id) {
		s = s.Union(g.nodes[p].Out)
	}
	return s
}

// InputSchemaView is InputSchema without the copy when the node has a single
// predecessor whose attribute names are distinct: that predecessor's output
// schema is then the input schema as is. The result shares storage with the
// graph and must be treated as read-only.
func (g *Graph) InputSchemaView(id NodeID) Schema {
	if preds := g.adjOf(g.pred, id); len(preds) == 1 {
		if out := g.nodes[preds[0]].Out; out.distinctNames() {
			return out
		}
	}
	return g.InputSchema(id)
}
