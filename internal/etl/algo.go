package etl

import "sort"

// LongestPath returns the number of nodes on the longest source-to-sink path.
// It is the manageability measure "length of process workflow's longest path"
// of Fig. 1. Returns 0 for an empty or cyclic graph.
func (g *Graph) LongestPath() int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	best := 0
	dist := make(map[NodeID]int, len(order))
	for _, id := range order {
		d := 1
		for _, p := range g.pred[id] {
			if dist[p]+1 > d {
				d = dist[p] + 1
			}
		}
		dist[id] = d
		if d > best {
			best = d
		}
	}
	return best
}

// CriticalPath returns the node IDs along a maximum-weight source-to-sink
// path, where the weight of a node is given by weight. The simulator uses it
// with per-node execution time to obtain the process cycle time contribution
// of pipelined segments.
func (g *Graph) CriticalPath(weight func(*Node) float64) ([]NodeID, float64) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0
	}
	dist := make(map[NodeID]float64, len(order))
	prev := make(map[NodeID]NodeID, len(order))
	var bestID NodeID
	best := -1.0
	for _, id := range order {
		w := weight(g.nodes[id])
		d := w
		for _, p := range g.pred[id] {
			if dist[p]+w > d {
				d = dist[p] + w
				prev[id] = p
			}
		}
		dist[id] = d
		if d > best {
			best, bestID = d, id
		}
	}
	if best < 0 {
		return nil, 0
	}
	var path []NodeID
	for id := bestID; ; {
		path = append(path, id)
		p, ok := prev[id]
		if !ok {
			break
		}
		id = p
	}
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
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
	for _, id := range g.order {
		if len(g.pred[id]) > 1 || g.nodes[id].Kind == OpMerge || g.nodes[id].Kind == OpUnion {
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
// union-find over insertion positions, one union per edge.
func (g *Graph) Components() int {
	pos := g.positions()
	parent := make([]int32, len(g.order))
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
	n := len(g.order)
	for i, id := range g.order {
		for _, s := range g.succ[id] {
			if a, b := find(int32(i)), find(pos[s]); a != b {
				parent[a] = b
				n--
			}
		}
	}
	return n
}

// Reachable returns the set of nodes reachable from id (excluding id itself
// unless it lies on a cycle, which Validate forbids).
func (g *Graph) Reachable(id NodeID) map[NodeID]bool {
	out := map[NodeID]bool{}
	stack := append([]NodeID(nil), g.succ[id]...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[cur] {
			continue
		}
		out[cur] = true
		stack = append(stack, g.succ[cur]...)
	}
	return out
}

// UpstreamDistance returns, for every node, the minimum number of edges from
// any source operation. Cleaning-pattern heuristics prefer application points
// with a small upstream distance ("as close as possible to the operations for
// inputting data sources").
func (g *Graph) UpstreamDistance() map[NodeID]int {
	order, err := g.TopoOrder()
	if err != nil {
		return map[NodeID]int{}
	}
	dist := make(map[NodeID]int, len(order))
	for _, id := range order {
		if len(g.pred[id]) == 0 {
			dist[id] = 0
			continue
		}
		best := -1
		for _, p := range g.pred[id] {
			if d, ok := dist[p]; ok && (best < 0 || d+1 < best) {
				best = d + 1
			}
		}
		if best < 0 {
			best = 0
		}
		dist[id] = best
	}
	return dist
}

// DownstreamCheckpointFree reports whether no checkpoint operation exists
// within maxHops edges downstream of id. The AddCheckpoint prerequisite uses
// it to avoid stacking savepoints.
func (g *Graph) DownstreamCheckpointFree(id NodeID, maxHops int) bool {
	type item struct {
		id   NodeID
		hops int
	}
	queue := []item{{id, 0}}
	seen := map[NodeID]bool{id: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops >= maxHops {
			continue
		}
		for _, s := range g.succ[cur.id] {
			if seen[s] {
				continue
			}
			seen[s] = true
			if g.nodes[s].Kind == OpCheckpoint {
				return false
			}
			queue = append(queue, item{s, cur.hops + 1})
		}
	}
	return true
}

// UpstreamCheckpointFree is the mirror of DownstreamCheckpointFree, looking
// at predecessors.
func (g *Graph) UpstreamCheckpointFree(id NodeID, maxHops int) bool {
	type item struct {
		id   NodeID
		hops int
	}
	queue := []item{{id, 0}}
	seen := map[NodeID]bool{id: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops >= maxHops {
			continue
		}
		for _, p := range g.pred[cur.id] {
			if seen[p] {
				continue
			}
			seen[p] = true
			if g.nodes[p].Kind == OpCheckpoint {
				return false
			}
			queue = append(queue, item{p, cur.hops + 1})
		}
	}
	return true
}

// InputSchema returns the effective input schema of a node: the union of its
// predecessors' output schemata (first predecessor first). For source nodes
// it is empty.
func (g *Graph) InputSchema(id NodeID) Schema {
	var s Schema
	for _, p := range g.pred[id] {
		s = s.Union(g.nodes[p].Out)
	}
	return s
}

// InputSchemaView is InputSchema without the copy when the node has a single
// predecessor whose attribute names are distinct: that predecessor's output
// schema is then the input schema as is. The result shares storage with the
// graph and must be treated as read-only.
func (g *Graph) InputSchemaView(id NodeID) Schema {
	if preds := g.pred[id]; len(preds) == 1 {
		if out := g.nodes[preds[0]].Out; out.distinctNames() {
			return out
		}
	}
	return g.InputSchema(id)
}

// SortedNodeIDs returns node IDs sorted lexicographically; used where a
// canonical (insertion-order independent) ordering is required.
func (g *Graph) SortedNodeIDs() []NodeID {
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
