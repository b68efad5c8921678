package etl

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
// Storage is by dense slot: a node's slot is its insertion position, and the
// node table and both adjacency indexes are slices indexed by slot, with
// adjacency lists holding slots. Removing a node leaves its slot nil, so
// ascending slot order is insertion order. One map from node ID to slot
// serves the ID-based API; the slot accessors (TopoSlots, NodeAt, PredSlots,
// SuccSlots, Slots) let hot paths walk the flow without it.
//
// Cloning is copy-on-write: Clone copies the slot tables but shares the
// Node values (and their schemas and parameter maps), the adjacency lists
// and the ID index (with its overlay) between the original and the copy.
// Structural mutations (AddNode, AddEdge, InsertOnEdge, ...) are always
// safe on either graph; to modify a node in place after a Clone, use
// MutableNode, which unshares the node first. Mutating a Node obtained from
// Node() directly on a graph that has live clones writes through to every
// clone sharing it.
//
// Fingerprints are cached on the graph and node digests on the nodes. Once a
// graph has been fingerprinted (or its cone keys computed), every in-place
// node edit must go through MutableNode, even on a graph that was never
// cloned: MutableNode drops both caches, while a direct write through Node()
// leaves them stale.
//
// Keying is incremental across clones. A graph that is cloned publishes a
// key memo, its per-slot fingerprint labels and cone keys, and the clone
// inherits it as its base. From then on the clone's mutations log the slots
// they touch: AddNode, AddEdge, edge removal and MutableNode log the slot
// whose node or predecessor list changed, and the edge changes (RemoveNode
// included) also log each producer whose successor list changed, since port
// routing reads the port index and the fan-out. The next Fingerprint or
// ConeKeys pass recomputes only the logged slots and the slots with a
// changed predecessor, and copies every other value from the base. Graphs
// that are never cloned (the planner's leaf alternatives) publish no memo.
// Finish editing a node from MutableNode before the next key pass or Clone:
// the log records the slot, not the edit, so an edit after the pass is
// missed as it always was.
type Graph struct {
	// Name labels the process (e.g. "tpcds_purchases").
	Name string

	// nodes, succ and pred are indexed by slot; a removed node's entries
	// are nil. Adjacency lists are never edited in place (every edge change
	// builds a new list), so clones share them safely.
	nodes []*Node
	succ  [][]int32
	pred  [][]int32
	// live and edges count the nodes |V| and edges |E|.
	live, edges int

	// index maps node IDs to slots. Clones share it, and a graph writes
	// into it only while it owns it: while indexEpoch equals epoch, that is
	// until its first Clone. A graph that adds or removes a node while the
	// index is shared records the change in overlay instead, a small map
	// (the new slot, or -1 for a removed ID) that lookups consult first.
	// The overlay is shared with clones and copied before a write the same
	// way (overlayEpoch), and it is folded into a fresh index of the graph's
	// own once it holds maxOverlay IDs.
	index        map[NodeID]int32
	indexEpoch   uint64
	overlay      map[NodeID]int32
	overlayEpoch uint64

	// seq generates fresh node IDs for pattern-inserted operations.
	seq int

	// epoch counts how many times this graph has been cloned; 0 means never,
	// so every node is exclusively owned. stamp records, per slot, the epoch
	// at which this graph unshared (or added) the node; a stamp older than
	// the epoch is stale, because a clone taken since then shares the node
	// again. The counter is atomic so that many workers may clone the same
	// parent flow concurrently; stamp and the index are only touched by
	// mutations, which are single-goroutine by the graph's contract.
	epoch atomic.Uint64
	stamp []uint64

	// topo caches the topological order and fp the canonical fingerprint;
	// mutators (and MutableNode, for fp) invalidate them. The cached values
	// are immutable: invalidation swaps the pointer, never the contents, so
	// previously returned values stay valid. Atomic so that concurrent
	// readers (evaluation workers cloning the same parent flow) may fill
	// them lazily without a lock.
	topo atomic.Pointer[topoOrder]
	fp   atomic.Pointer[string]

	// memo is the key memo of the current state, published by the first
	// Clone after the last mutation; immutable once stored. base is a memo
	// of an earlier state of this graph (its parent's at Clone, or its own
	// when a mutation followed its publication), and log the changes since
	// base: slot s for an edited node or predecessor list, ^s for a changed
	// successor list. Only a graph with a base keeps a log.
	memo atomic.Pointer[keyMemo]
	base *keyMemo
	log  []int32
}

// topoOrder is a cached topological order, as node IDs and as slots, and
// the slot-indexed upstream distances derived from it (UpstreamDistance).
type topoOrder struct {
	ids   []NodeID
	slots []int32
	dist  atomic.Pointer[[]int32]
}

// adopt moves the fully built src graph's state into g (UnmarshalJSON
// decodes into a temporary and installs it here). A plain struct assignment
// would copy the atomic topo cache, which the race detector forbids.
func (g *Graph) adopt(src *Graph) {
	g.Name = src.Name
	g.nodes, g.succ, g.pred = src.nodes, src.succ, src.pred
	g.live, g.edges = src.live, src.edges
	g.index, g.indexEpoch = src.index, src.indexEpoch
	g.overlay, g.overlayEpoch = src.overlay, src.overlayEpoch
	g.seq = src.seq
	g.stamp = src.stamp
	g.epoch.Store(src.epoch.Load())
	g.topo.Store(src.topo.Load())
	g.fp.Store(src.fp.Load())
	g.memo.Store(src.memo.Load())
	g.base, g.log = src.base, src.log
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, index: map[NodeID]int32{}}
}

// Len returns the number of nodes |V|.
func (g *Graph) Len() int { return g.live }

// EdgeCount returns the number of edges |E|.
func (g *Graph) EdgeCount() int { return g.edges }

// invalidate drops the cached topological order and fingerprint after a
// structural mutation.
func (g *Graph) invalidate() {
	g.topo.Store(nil)
	g.fp.Store(nil)
}

// logEdit records that the node in slot s, or its predecessor list,
// changed; logFan records that the successor list of slot s changed.
func (g *Graph) logEdit(s int32) {
	if g.rebase() {
		g.log = append(g.log, s)
	}
}

func (g *Graph) logFan(s int32) {
	if g.rebase() {
		g.log = append(g.log, ^s)
	}
}

// rebase prepares the change log for a mutation and reports whether the
// graph keeps one. A memo published for the state before the mutation
// becomes the new base and the log restarts from it. Without a base there
// is nothing to log against: the next key pass computes every slot.
func (g *Graph) rebase() bool {
	if m := g.memo.Load(); m != nil {
		g.memo.Store(nil)
		g.base, g.log = m, g.log[:0]
	}
	return g.base != nil
}

// maxOverlay is the size at which a graph folds its ID overlay into an
// index of its own, so that generations of clones do not pile up overlays.
const maxOverlay = 16

// slotOf returns the slot of the node with the given ID.
func (g *Graph) slotOf(id NodeID) (int32, bool) {
	if g.overlay != nil {
		if s, ok := g.overlay[id]; ok {
			return s, s >= 0
		}
	}
	s, ok := g.index[id]
	return s, ok
}

// setSlot maps id to slot s, or unmaps it when s is -1: in the index when
// the graph owns it, else in the graph's overlay, which is copied first
// when a clone may share it. Adding a node to a clone thus costs a map of a
// few entries, not a copy of the flow's index.
func (g *Graph) setSlot(id NodeID, s int32) {
	ep := g.epoch.Load()
	if g.indexEpoch == ep {
		if s < 0 {
			delete(g.index, id)
		} else {
			g.index[id] = s
		}
		return
	}
	if g.overlay == nil || g.overlayEpoch != ep {
		ov := make(map[NodeID]int32, len(g.overlay)+1)
		maps.Copy(ov, g.overlay)
		g.overlay, g.overlayEpoch = ov, ep
	}
	g.overlay[id] = s
	if len(g.overlay) >= maxOverlay {
		index := maps.Clone(g.index)
		for id, s := range g.overlay {
			if s < 0 {
				delete(index, id)
			} else {
				index[id] = s
			}
		}
		g.index, g.indexEpoch, g.overlay = index, ep, nil
	}
}

// setStamp marks the node at slot as owned by this graph at epoch ep. The
// stamp table grows to the slot table's capacity in one allocation, so the
// few nodes a pattern weaves into a clone do not regrow it.
func (g *Graph) setStamp(slot int32, ep uint64) {
	if n := len(g.nodes); len(g.stamp) < n {
		if cap(g.stamp) >= n {
			g.stamp = g.stamp[:n] // never shrunk, so the tail is still zero
		} else {
			st := make([]uint64, n, cap(g.nodes))
			copy(st, g.stamp)
			g.stamp = st
		}
	}
	g.stamp[slot] = ep
}

// AddNode inserts a node. It fails if the ID is already taken.
func (g *Graph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("%w: empty node", ErrUnknownNode)
	}
	if _, ok := g.slotOf(n.ID); ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, n.ID)
	}
	slot := int32(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.live++
	g.setSlot(n.ID, slot)
	if ep := g.epoch.Load(); ep != 0 {
		g.setStamp(slot, ep)
	}
	g.logEdit(slot)
	g.invalidate()
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

// RemoveNode deletes a node and every edge touching it. Its slot stays
// behind, empty.
func (g *Graph) RemoveNode(id NodeID) error {
	s, ok := g.slotOf(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	for _, p := range g.pred[s] {
		g.succ[p] = withoutSlot(g.succ[p], s)
		g.logFan(p)
	}
	for _, t := range g.succ[s] {
		g.pred[t] = withoutSlot(g.pred[t], s)
		g.logEdit(t)
	}
	g.edges -= len(g.pred[s]) + len(g.succ[s])
	g.nodes[s], g.succ[s], g.pred[s] = nil, nil, nil
	g.live--
	g.setSlot(id, -1)
	g.invalidate()
	return nil
}

// AddEdge inserts the transition from -> to. Both endpoints must exist; self
// loops and duplicate edges are rejected.
func (g *Graph) AddEdge(from, to NodeID) error {
	if from == to {
		return fmt.Errorf("%w: %s", ErrSelfLoop, from)
	}
	f, ok := g.slotOf(from)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	t, ok := g.slotOf(to)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if slices.Contains(g.succ[f], t) {
		return fmt.Errorf("%w: %s->%s", ErrDuplicateEdge, from, to)
	}
	// Clip first so the append always builds a new list: the old one may
	// be shared with a clone.
	g.succ[f] = append(slices.Clip(g.succ[f]), t)
	g.pred[t] = append(slices.Clip(g.pred[t]), f)
	g.logFan(f)
	g.logEdit(t)
	g.edges++
	g.invalidate()
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
	f, fok := g.slotOf(from)
	t, tok := g.slotOf(to)
	if !fok || !tok || !slices.Contains(g.succ[f], t) {
		return fmt.Errorf("%w: %s->%s", ErrUnknownNode, from, to)
	}
	g.removeEdge(f, t)
	return nil
}

func (g *Graph) removeEdge(f, t int32) {
	g.succ[f] = withoutSlot(g.succ[f], t)
	g.pred[t] = withoutSlot(g.pred[t], f)
	g.logFan(f)
	g.logEdit(t)
	g.edges--
	g.invalidate()
}

// withoutSlot returns list without s, always as a fresh slice: the list may
// be shared with clones, so shifting elements in place would corrupt theirs.
func withoutSlot(list []int32, s int32) []int32 {
	i := slices.Index(list, s)
	if i < 0 {
		return list
	}
	out := make([]int32, 0, len(list)-1)
	return append(append(out, list[:i]...), list[i+1:]...)
}

// HasEdge reports whether the transition from -> to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	f, fok := g.slotOf(from)
	t, tok := g.slotOf(to)
	return fok && tok && slices.Contains(g.succ[f], t)
}

// Node returns the node with the given ID, or nil. The returned node may be
// shared with clones of this graph; callers that intend to modify it must go
// through MutableNode instead.
func (g *Graph) Node(id NodeID) *Node {
	if s, ok := g.slotOf(id); ok {
		return g.nodes[s]
	}
	return nil
}

// MutableNode returns the node with the given ID for in-place modification,
// first unsharing it (deep copy) when it is shared with clones of this graph.
// Pattern implementations and any other code that edits node fields, params
// or costs on a cloned flow must use this accessor; plain Node() reads stay
// allocation-free. The graph's fingerprint and the node's digest are dropped
// and the slot is logged for the next incremental key pass here, not at the
// edit, so finish editing the returned node before the next Fingerprint,
// ConeKeys or Clone call on this graph.
func (g *Graph) MutableNode(id NodeID) *Node {
	s, ok := g.slotOf(id)
	if !ok {
		return nil
	}
	g.logEdit(s)
	n := g.nodes[s]
	ep := g.epoch.Load()
	if ep == 0 || int(s) < len(g.stamp) && g.stamp[s] == ep {
		// Never cloned, or unshared since the most recent clone, so no other
		// graph sees the node. The caller is about to modify it, so the
		// cached fingerprint and the node's digest die here too.
		g.fp.Store(nil)
		n.dig.Store(nil)
		return n
	}
	c := n.Clone()
	g.nodes[s] = c
	g.setStamp(s, ep)
	g.fp.Store(nil)
	return c
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, g.live)
	for _, n := range g.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// NodeIDs returns all node IDs in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, 0, g.live)
	for _, n := range g.nodes {
		if n != nil {
			out = append(out, n.ID)
		}
	}
	return out
}

// Edges returns all edges ordered by source insertion order then target
// order, which keeps iteration deterministic.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for s, n := range g.nodes {
		for _, t := range g.succ[s] {
			out = append(out, Edge{From: n.ID, To: g.nodes[t].ID})
		}
	}
	return out
}

// adjOf returns the slot list of id in adj (succ or pred), nil for an
// unknown ID.
func (g *Graph) adjOf(adj [][]int32, id NodeID) []int32 {
	if s, ok := g.slotOf(id); ok {
		return adj[s]
	}
	return nil
}

// ids translates a slot list into node IDs (nil for an empty list).
func (g *Graph) ids(slots []int32) []NodeID {
	if len(slots) == 0 {
		return nil
	}
	out := make([]NodeID, len(slots))
	for i, s := range slots {
		out[i] = g.nodes[s].ID
	}
	return out
}

// Succ returns the successors of id in insertion order of edges.
func (g *Graph) Succ(id NodeID) []NodeID { return g.ids(g.adjOf(g.succ, id)) }

// Pred returns the predecessors of id.
func (g *Graph) Pred(id NodeID) []NodeID { return g.ids(g.adjOf(g.pred, id)) }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.adjOf(g.pred, id)) }

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.adjOf(g.succ, id)) }

// Slots returns the number of slots: every slot in [0, Slots()) holds a
// node or is empty (NodeAt returns nil). Slot-indexed scratch is sized by it.
func (g *Graph) Slots() int { return len(g.nodes) }

// NodeAt returns the node in the given slot, nil for an empty slot. The same
// sharing contract as Node applies.
func (g *Graph) NodeAt(slot int32) *Node { return g.nodes[slot] }

// SuccSlots returns the successor slots of the node in slot, in insertion
// order of edges, without copying. The slice is read-only; later mutations
// replace rather than rewrite it.
func (g *Graph) SuccSlots(slot int32) []int32 { return g.succ[slot] }

// PredSlots returns the predecessor slots of the node in slot; same contract
// as SuccSlots.
func (g *Graph) PredSlots(slot int32) []int32 { return g.pred[slot] }

// Sources returns the nodes with no incoming edges, in insertion order.
func (g *Graph) Sources() []*Node {
	var out []*Node
	for s, n := range g.nodes {
		if n != nil && len(g.pred[s]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing edges, in insertion order.
func (g *Graph) Sinks() []*Node {
	var out []*Node
	for s, n := range g.nodes {
		if n != nil && len(g.succ[s]) == 0 {
			out = append(out, n)
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
		if _, ok := g.slotOf(id); !ok {
			return id
		}
	}
}

// cloneSlack is the spare slot capacity a clone gets, so that the few nodes
// a pattern application weaves in do not reallocate the slot tables.
const cloneSlack = 4

// Clone returns a copy-on-write copy of the graph. Node IDs and slots are
// preserved.
//
// The clone copies the three slot tables and shares everything they point
// to: the Node values (with their schemas and parameter maps) until one
// graph modifies a node through MutableNode, the adjacency lists (which no
// mutation edits in place) and the ID index, over which a graph that adds
// or removes a node keeps a small overlay of its own. The planner clones every frontier design once per candidate
// pattern application, so this is the per-candidate cost of generation.
//
// The first Clone after a mutation also builds and publishes g's key memo
// (incrementally, from g's own base and log when it has one), and the clone
// starts from that memo with an empty log, so its key passes hash only what
// its edits reach. Clone writes nothing to g but atomics (the epoch and the
// memo), so concurrent workers may clone one parent.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes) + cloneSlack
	c := &Graph{
		Name:    g.Name,
		nodes:   append(make([]*Node, 0, n), g.nodes...),
		succ:    append(make([][]int32, 0, n), g.succ...),
		pred:    append(make([][]int32, 0, n), g.pred...),
		live:    g.live,
		edges:   g.edges,
		index:   g.index,
		overlay: g.overlay,
		seq:     g.seq,
	}
	// Epoch 1 with indexEpoch and overlayEpoch 0 and no stamps: the clone owns
	// neither the index, nor the overlay, nor any node.
	c.epoch.Store(1)
	// The structure is identical, so the clone inherits the cached topological
	// order and fingerprint; its own mutations will invalidate only its
	// copies of the pointers.
	c.topo.Store(g.topo.Load())
	c.fp.Store(g.fp.Load())
	c.base = g.publishMemo()
	// From now on this graph's nodes and index are shared too: bumping the
	// epoch makes every existing stamp stale, so further in-place edits on
	// either side go back through MutableNode's unsharing copy.
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
	t, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	return t.ids, nil
}

// TopoSlots is TopoOrder as slots: the same order, same cache and same
// read-only contract.
func (g *Graph) TopoSlots() ([]int32, error) {
	t, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	return t.slots, nil
}

func (g *Graph) topoOrder() (*topoOrder, error) {
	if t := g.topo.Load(); t != nil {
		return t, nil
	}
	t, err := g.topoSortUncached()
	if err != nil {
		return nil, err
	}
	g.topo.Store(t)
	return t, nil
}

// topoSortUncached is Kahn's algorithm over slots: ready is a min-heap of
// the slots whose predecessors have all been emitted, so each step emits
// the ready node inserted earliest.
func (g *Graph) topoSortUncached() (*topoOrder, error) {
	indeg := make([]int32, len(g.nodes))
	ready := make(posHeap, 0, g.live)
	for s, n := range g.nodes {
		if n == nil {
			continue
		}
		indeg[s] = int32(len(g.pred[s]))
		if indeg[s] == 0 {
			// Ascending slots already satisfy the heap order.
			ready = append(ready, int32(s))
		}
	}
	t := &topoOrder{ids: make([]NodeID, 0, g.live), slots: make([]int32, 0, g.live)}
	for len(ready) > 0 {
		s := ready.pop()
		t.slots = append(t.slots, s)
		t.ids = append(t.ids, g.nodes[s].ID)
		for _, x := range g.succ[s] {
			indeg[x]--
			if indeg[x] == 0 {
				ready.push(x)
			}
		}
	}
	if len(t.slots) != g.live {
		return nil, ErrCycle
	}
	return t, nil
}

// posHeap is a binary min-heap of slots.
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
	if g.live == 0 {
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
	for s, n := range g.nodes {
		if n == nil {
			continue
		}
		in, out := len(g.pred[s]), len(g.succ[s])
		if maxIn := n.Kind.MaxInputs(); maxIn >= 0 && in > maxIn {
			return fmt.Errorf("%w: %s accepts at most %d inputs, has %d",
				ErrArity, n, maxIn, in)
		}
		if maxOut := n.Kind.MaxOutputs(); maxOut >= 0 && out > maxOut {
			return fmt.Errorf("%w: %s accepts at most %d outputs, has %d",
				ErrArity, n, maxOut, out)
		}
		if n.Kind.IsSource() && in > 0 {
			return fmt.Errorf("%w: source %s has inputs", ErrArity, n)
		}
		if !n.Kind.IsSource() && in == 0 {
			return fmt.Errorf("%w: %s has no input", ErrArity, n)
		}
		if n.Kind.IsSink() && out > 0 {
			return fmt.Errorf("%w: sink %s has outputs", ErrArity, n)
		}
		if !n.Kind.IsSink() && out == 0 {
			return fmt.Errorf("%w: %s", ErrNotConnected, n)
		}
	}
	// Schema compatibility along every edge: the consumer's declared output
	// must be derivable, which we approximate by requiring that consumers
	// that pass attributes through see them on some input.
	for s, from := range g.nodes {
		for _, t := range g.succ[s] {
			to := g.nodes[t]
			if err := checkEdgeSchema(from, to); err != nil {
				return fmt.Errorf("%w: %s -> %s: %v", ErrSchema, from, to, err)
			}
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
		n := g.Node(id)
		succs := make([]string, 0, g.OutDegree(id))
		for _, s := range g.Succ(id) {
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
	for _, nd := range g.nodes {
		if nd != nil && nd.Generated {
			n++
		}
	}
	return n
}
