package etl

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Common graph construction and validation errors.
var (
	ErrDuplicateNode = errors.New("etl: duplicate node id")
	ErrUnknownNode   = errors.New("etl: unknown node id")
	ErrDuplicateEdge = errors.New("etl: duplicate edge")
	ErrSelfLoop      = errors.New("etl: self loop")
	ErrCycle         = errors.New("etl: graph contains a cycle")
	ErrNotConnected  = errors.New("etl: node not connected to any sink")
	ErrArity         = errors.New("etl: operation arity violated")
	ErrNoSource      = errors.New("etl: graph has no source operation")
	ErrNoSink        = errors.New("etl: graph has no sink operation")
	ErrSchema        = errors.New("etl: schema incompatibility")
)

// Graph is an ETL process flow: a DAG whose vertices are ETL operations and
// whose directed edges are transitions between consecutive operations.
//
// The zero value is not usable; create graphs with New.
//
// Cloning is copy-on-write: Clone copies the adjacency indexes but shares the
// Node values (and their schemas and parameter maps) between the original and
// the copy. Structural mutations (AddNode, AddEdge, InsertOnEdge, ...) are
// always safe on either graph; to modify a node in place after a Clone, use
// MutableNode, which unshares the node first. Mutating a Node obtained from
// Node() directly on a graph that has live clones writes through to every
// clone sharing it.
//
// Fingerprints are cached on the graph and node digests on the nodes. Once a
// graph has been fingerprinted (or its cone keys computed), every in-place
// node edit must go through MutableNode, even on a graph that was never
// cloned: MutableNode drops both caches, while a direct write through Node()
// leaves them stale.
type Graph struct {
	// Name labels the process (e.g. "tpcds_purchases").
	Name string

	nodes map[NodeID]*Node
	succ  map[NodeID][]NodeID
	pred  map[NodeID][]NodeID

	// order preserves insertion order of nodes for deterministic iteration.
	order []NodeID

	// seq generates fresh node IDs for pattern-inserted operations.
	seq int

	// epoch counts how many times this graph has been cloned; 0 means never,
	// so every node is exclusively owned. owned records, per node, the epoch
	// at which this graph unshared (or added) it — entries stamped with an
	// older epoch are stale, because a clone taken since then shares the
	// node again. The counter is atomic so that many workers may clone the
	// same parent flow concurrently; the owned map itself is only touched by
	// mutations, which are single-goroutine by the graph's contract.
	epoch atomic.Uint64
	owned map[NodeID]uint64

	// topo caches the topological order and fp the canonical fingerprint;
	// mutators (and MutableNode, for fp) invalidate them. The cached values
	// are immutable: invalidation swaps the pointer, never the contents, so
	// previously returned values stay valid. Atomic so that concurrent
	// readers (evaluation workers cloning the same parent flow) may fill
	// them lazily without a lock.
	topo atomic.Pointer[[]NodeID]
	fp   atomic.Pointer[string]
}

// adopt moves the fully built src graph's state into g (UnmarshalJSON
// decodes into a temporary and installs it here). A plain struct assignment
// would copy the atomic topo cache, which the race detector forbids.
func (g *Graph) adopt(src *Graph) {
	g.Name = src.Name
	g.nodes = src.nodes
	g.succ = src.succ
	g.pred = src.pred
	g.order = src.order
	g.seq = src.seq
	g.owned = src.owned
	g.epoch.Store(src.epoch.Load())
	g.topo.Store(src.topo.Load())
	g.fp.Store(src.fp.Load())
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{
		Name:  name,
		nodes: map[NodeID]*Node{},
		succ:  map[NodeID][]NodeID{},
		pred:  map[NodeID][]NodeID{},
	}
}

// Len returns the number of nodes |V|.
func (g *Graph) Len() int { return len(g.nodes) }

// EdgeCount returns the number of edges |E|.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// AddNode inserts a node. It fails if the ID is already taken.
func (g *Graph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("%w: empty node", ErrUnknownNode)
	}
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, n.ID)
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	if ep := g.epoch.Load(); ep != 0 {
		if g.owned == nil {
			g.owned = map[NodeID]uint64{}
		}
		g.owned[n.ID] = ep
	}
	g.topo.Store(nil)
	g.fp.Store(nil)
	return nil
}

// MustAddNode inserts a node and panics on error. Intended for builders of
// fixed fixture flows where an error is a programming bug.
func (g *Graph) MustAddNode(n *Node) *Node {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
	return n
}

// RemoveNode deletes a node and every edge touching it.
func (g *Graph) RemoveNode(id NodeID) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	for _, p := range append([]NodeID(nil), g.pred[id]...) {
		g.removeEdge(p, id)
	}
	for _, s := range append([]NodeID(nil), g.succ[id]...) {
		g.removeEdge(id, s)
	}
	delete(g.nodes, id)
	delete(g.succ, id)
	delete(g.pred, id)
	delete(g.owned, id)
	for i, o := range g.order {
		if o == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.topo.Store(nil)
	g.fp.Store(nil)
	return nil
}

// AddEdge inserts the transition from -> to. Both endpoints must exist; self
// loops and duplicate edges are rejected.
func (g *Graph) AddEdge(from, to NodeID) error {
	if from == to {
		return fmt.Errorf("%w: %s", ErrSelfLoop, from)
	}
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("%w: %s->%s", ErrDuplicateEdge, from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.topo.Store(nil)
	g.fp.Store(nil)
	return nil
}

// MustAddEdge inserts an edge and panics on error.
func (g *Graph) MustAddEdge(from, to NodeID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the transition from -> to.
func (g *Graph) RemoveEdge(from, to NodeID) error {
	for _, s := range g.succ[from] {
		if s == to {
			g.removeEdge(from, to)
			return nil
		}
	}
	return fmt.Errorf("%w: %s->%s", ErrUnknownNode, from, to)
}

func (g *Graph) removeEdge(from, to NodeID) {
	g.succ[from] = removeID(g.succ[from], to)
	g.pred[to] = removeID(g.pred[to], from)
	g.topo.Store(nil)
	g.fp.Store(nil)
}

// removeID returns list without id. It always allocates a fresh slice: the
// adjacency slices may be shared with clones of the graph (copy-on-write
// Clone), so shifting elements in place would corrupt the sharers' views.
func removeID(list []NodeID, id NodeID) []NodeID {
	for i, v := range list {
		if v == id {
			out := make([]NodeID, 0, len(list)-1)
			out = append(out, list[:i]...)
			return append(out, list[i+1:]...)
		}
	}
	return list
}

// HasEdge reports whether the transition from -> to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	for _, s := range g.succ[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Node returns the node with the given ID, or nil. The returned node may be
// shared with clones of this graph; callers that intend to modify it must go
// through MutableNode instead.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// MutableNode returns the node with the given ID for in-place modification,
// first unsharing it (deep copy) when it is shared with clones of this graph.
// Pattern implementations and any other code that edits node fields, params
// or costs on a cloned flow must use this accessor; plain Node() reads stay
// allocation-free. The graph's fingerprint and the node's digest are dropped
// here, not at the edit, so finish editing the returned node before the next
// Fingerprint or ConeKeys call on this graph.
func (g *Graph) MutableNode(id NodeID) *Node {
	n := g.nodes[id]
	if n == nil {
		return nil
	}
	ep := g.epoch.Load()
	if ep == 0 || g.owned[id] == ep {
		// Never cloned, or unshared since the most recent clone, so no other
		// graph sees the node. The caller is about to modify it, so the
		// cached fingerprint and the node's digest die here too.
		g.fp.Store(nil)
		n.dig.Store(nil)
		return n
	}
	c := n.Clone()
	g.nodes[id] = c
	if g.owned == nil {
		g.owned = map[NodeID]uint64{}
	}
	g.owned[id] = ep
	g.fp.Store(nil)
	return c
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// NodeIDs returns all node IDs in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	return append([]NodeID(nil), g.order...)
}

// Edges returns all edges ordered by source insertion order then target
// order, which keeps iteration deterministic.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, id := range g.order {
		for _, s := range g.succ[id] {
			out = append(out, Edge{From: id, To: s})
		}
	}
	return out
}

// Succ returns the successors of id in insertion order of edges.
func (g *Graph) Succ(id NodeID) []NodeID {
	return append([]NodeID(nil), g.succ[id]...)
}

// Pred returns the predecessors of id.
func (g *Graph) Pred(id NodeID) []NodeID {
	return append([]NodeID(nil), g.pred[id]...)
}

// SuccView returns the successors of id without copying. The returned slice
// is a view into the graph's adjacency index: callers must not modify it, and
// it is only valid until the next graph mutation. Hot paths (the simulator)
// use it to avoid one allocation per node per execution.
func (g *Graph) SuccView(id NodeID) []NodeID { return g.succ[id] }

// PredView returns the predecessors of id without copying; same contract as
// SuccView.
func (g *Graph) PredView(id NodeID) []NodeID { return g.pred[id] }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.pred[id]) }

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.succ[id]) }

// Sources returns the nodes with no incoming edges, in insertion order.
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, id := range g.order {
		if len(g.pred[id]) == 0 {
			out = append(out, g.nodes[id])
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing edges, in insertion order.
func (g *Graph) Sinks() []*Node {
	var out []*Node
	for _, id := range g.order {
		if len(g.succ[id]) == 0 {
			out = append(out, g.nodes[id])
		}
	}
	return out
}

// FreshID mints a node ID that does not collide with any existing node.
// Pattern applications use it when weaving generated operations into a flow.
func (g *Graph) FreshID(prefix string) NodeID {
	for {
		g.seq++
		id := NodeID(fmt.Sprintf("%s_%d", prefix, g.seq))
		if _, ok := g.nodes[id]; !ok {
			return id
		}
	}
}

// Clone returns a copy-on-write copy of the graph. Node IDs are preserved.
//
// The adjacency indexes are copied, but the Node values (with their schemas
// and parameter maps) are shared between the two graphs until one of them
// modifies a node through MutableNode — the planner clones every frontier
// design once per candidate pattern application, and deep-copying ~|V| nodes
// per clone dominated generation cost. Structural mutations on either graph
// never affect the other: the shared adjacency slices are capacity-clamped so
// appends reallocate, and removeID always copies.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:  g.Name,
		seq:   g.seq,
		nodes: make(map[NodeID]*Node, len(g.nodes)),
		succ:  make(map[NodeID][]NodeID, len(g.succ)),
		pred:  make(map[NodeID][]NodeID, len(g.pred)),
		order: append(make([]NodeID, 0, len(g.order)), g.order...),
	}
	c.epoch.Store(1)
	for id, n := range g.nodes {
		c.nodes[id] = n
	}
	for id, s := range g.succ {
		if len(s) > 0 {
			c.succ[id] = s[:len(s):len(s)]
		}
	}
	for id, p := range g.pred {
		if len(p) > 0 {
			c.pred[id] = p[:len(p):len(p)]
		}
	}
	// The structure is identical, so the clone inherits the cached topological
	// order and fingerprint; its own mutations will invalidate only its
	// copies of the pointers.
	c.topo.Store(g.topo.Load())
	c.fp.Store(g.fp.Load())
	// From now on this graph's nodes are shared too: bumping the epoch makes
	// every existing ownership entry stale, so further in-place edits on
	// either side go back through MutableNode's unsharing copy. The bump is
	// atomic because many evaluation workers clone the same parent flow
	// concurrently.
	g.epoch.Add(1)
	return c
}

// TopoSort returns the node IDs in a deterministic topological order
// (Kahn's algorithm with insertion-order tie-breaking). It fails with
// ErrCycle if the graph is not acyclic. The result is a fresh slice the
// caller may keep or modify; TopoOrder returns the shared cached order.
func (g *Graph) TopoSort() ([]NodeID, error) {
	t, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return append([]NodeID(nil), t...), nil
}

// TopoOrder returns the graph's topological order without copying. The slice
// is cached on the graph (mutations invalidate it) and must be treated as
// read-only; it stays valid even after later mutations, which replace rather
// than rewrite it. Lazy fills from concurrent readers are safe.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	if t := g.topo.Load(); t != nil {
		return *t, nil
	}
	out, err := g.topoSortUncached()
	if err != nil {
		return nil, err
	}
	g.topo.Store(&out)
	return out, nil
}

// topoSortUncached is Kahn's algorithm over insertion positions: ready is a
// min-heap of the positions whose predecessors have all been emitted, so
// each step emits the ready node inserted earliest.
func (g *Graph) topoSortUncached() ([]NodeID, error) {
	pos := g.positions()
	indeg := make([]int32, len(g.order))
	ready := make(posHeap, 0, len(g.order))
	for i, id := range g.order {
		indeg[i] = int32(len(g.pred[id]))
		if indeg[i] == 0 {
			// Ascending positions already satisfy the heap order.
			ready = append(ready, int32(i))
		}
	}
	out := make([]NodeID, 0, len(g.order))
	for len(ready) > 0 {
		id := g.order[ready.pop()]
		out = append(out, id)
		for _, s := range g.succ[id] {
			j := pos[s]
			indeg[j]--
			if indeg[j] == 0 {
				ready.push(j)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, ErrCycle
	}
	return out, nil
}

// positions maps every node to its insertion position.
func (g *Graph) positions() map[NodeID]int32 {
	pos := make(map[NodeID]int32, len(g.order))
	for i, id := range g.order {
		pos[id] = int32(i)
	}
	return pos
}

// posHeap is a binary min-heap of node positions.
type posHeap []int32

func (h *posHeap) push(x int32) {
	a := append(*h, x)
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *posHeap) pop() int32 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(a) && a[l] < a[m] {
			m = l
		}
		if r := l + 1; r < len(a) && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}

// Validate checks structural well-formedness: the graph is a non-empty DAG,
// every operation respects its arity bounds, there is at least one source and
// one sink, every node reaches a sink and is reachable from a source, and
// every edge is schema-compatible (the producer's output can feed the
// consumer). It returns the first problem found.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return ErrNoSource
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	srcs, sinks := g.Sources(), g.Sinks()
	if len(srcs) == 0 {
		return ErrNoSource
	}
	if len(sinks) == 0 {
		return ErrNoSink
	}
	for _, id := range g.order {
		n := g.nodes[id]
		if maxIn := n.Kind.MaxInputs(); maxIn >= 0 && len(g.pred[id]) > maxIn {
			return fmt.Errorf("%w: %s accepts at most %d inputs, has %d",
				ErrArity, n, maxIn, len(g.pred[id]))
		}
		if maxOut := n.Kind.MaxOutputs(); maxOut >= 0 && len(g.succ[id]) > maxOut {
			return fmt.Errorf("%w: %s accepts at most %d outputs, has %d",
				ErrArity, n, maxOut, len(g.succ[id]))
		}
		if n.Kind.IsSource() && len(g.pred[id]) > 0 {
			return fmt.Errorf("%w: source %s has inputs", ErrArity, n)
		}
		if !n.Kind.IsSource() && len(g.pred[id]) == 0 {
			return fmt.Errorf("%w: %s has no input", ErrArity, n)
		}
		if n.Kind.IsSink() && len(g.succ[id]) > 0 {
			return fmt.Errorf("%w: sink %s has outputs", ErrArity, n)
		}
		if !n.Kind.IsSink() && len(g.succ[id]) == 0 {
			return fmt.Errorf("%w: %s", ErrNotConnected, n)
		}
	}
	// Schema compatibility along every edge: the consumer's declared output
	// must be derivable, which we approximate by requiring that consumers
	// that pass attributes through see them on some input.
	for _, e := range g.Edges() {
		from, to := g.nodes[e.From], g.nodes[e.To]
		if err := checkEdgeSchema(from, to); err != nil {
			return fmt.Errorf("%w: %s -> %s: %v", ErrSchema, from, to, err)
		}
	}
	return nil
}

// checkEdgeSchema validates that the consumer can be fed by the producer.
// Pass-through operations must not invent attributes that the producer does
// not emit; transforming operations (derive, aggregate, join...) may.
func checkEdgeSchema(from, to *Node) error {
	if to.Out.IsEmpty() || from.Out.IsEmpty() {
		return nil // schemata optional on imported flows
	}
	switch to.Kind {
	case OpFilter, OpFilterNull, OpDedup, OpSort, OpCheckpoint, OpEncrypt,
		OpMerge, OpUnion, OpNoop, OpLoad, OpSplit, OpPartition, OpCrosscheck:
		// Pure pass-through (possibly row-removing): output attributes must
		// be a subset of the input's.
		for _, a := range to.Out.Attrs {
			got, ok := from.Out.Attr(a.Name)
			if !ok {
				return fmt.Errorf("attribute %q not produced upstream", a.Name)
			}
			if got.Type != a.Type {
				return fmt.Errorf("attribute %q type mismatch: %s vs %s",
					a.Name, got.Type, a.Type)
			}
		}
	}
	return nil
}

// String renders a compact multi-line description of the flow, one node per
// line with its successors: useful in CLI output and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %q: %d nodes, %d edges\n", g.Name, g.Len(), g.EdgeCount())
	order, err := g.TopoOrder()
	if err != nil {
		order = g.NodeIDs()
	}
	for _, id := range order {
		n := g.nodes[id]
		succs := make([]string, 0, len(g.succ[id]))
		for _, s := range g.succ[id] {
			succs = append(succs, string(s))
		}
		marker := ""
		if n.Generated {
			marker = " [+" + n.PatternName + "]"
		}
		fmt.Fprintf(&b, "  %-28s %-12s -> %s%s\n", n.ID, n.Kind, strings.Join(succs, ", "), marker)
	}
	return b.String()
}

// GeneratedCount returns how many nodes were introduced by patterns.
func (g *Graph) GeneratedCount() int {
	n := 0
	for _, id := range g.order {
		if g.nodes[id].Generated {
			n++
		}
	}
	return n
}
