package etl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refGraph is the map-based representation the slot-indexed Graph
// replaced: nodes and adjacency lists keyed by ID, and the insertion order
// as a slice. It is the oracle of the model-based test below, which drives
// it and a Graph through the same random mutation sequences.
type refGraph struct {
	name       string
	nodes      map[NodeID]*Node
	succ, pred map[NodeID][]NodeID
	order      []NodeID
}

func newRefGraph(name string) *refGraph {
	return &refGraph{name: name, nodes: map[NodeID]*Node{}, succ: map[NodeID][]NodeID{}, pred: map[NodeID][]NodeID{}}
}

// refOf snapshots g as a reference graph.
func refOf(g *Graph) *refGraph {
	r := newRefGraph(g.Name)
	for _, n := range g.Nodes() {
		r.addNode(n.Clone())
	}
	for _, e := range g.Edges() {
		r.addEdge(e.From, e.To)
	}
	return r
}

// clone is a deep copy: the reference shares nothing with its clones.
func (r *refGraph) clone() *refGraph {
	c := newRefGraph(r.name)
	for id, n := range r.nodes {
		c.nodes[id] = n.Clone()
	}
	for id, s := range r.succ {
		c.succ[id] = slices.Clone(s)
	}
	for id, p := range r.pred {
		c.pred[id] = slices.Clone(p)
	}
	c.order = slices.Clone(r.order)
	return c
}

func (r *refGraph) addNode(n *Node) error {
	if r.nodes[n.ID] != nil {
		return ErrDuplicateNode
	}
	r.nodes[n.ID] = n
	r.order = append(r.order, n.ID)
	return nil
}

func (r *refGraph) removeNode(id NodeID) error {
	if r.nodes[id] == nil {
		return ErrUnknownNode
	}
	for _, p := range slices.Clone(r.pred[id]) {
		r.removeEdge(p, id)
	}
	for _, s := range slices.Clone(r.succ[id]) {
		r.removeEdge(id, s)
	}
	delete(r.nodes, id)
	delete(r.succ, id)
	delete(r.pred, id)
	r.order = slices.DeleteFunc(r.order, func(o NodeID) bool { return o == id })
	return nil
}

func (r *refGraph) addEdge(from, to NodeID) error {
	switch {
	case from == to:
		return ErrSelfLoop
	case r.nodes[from] == nil || r.nodes[to] == nil:
		return ErrUnknownNode
	case slices.Contains(r.succ[from], to):
		return ErrDuplicateEdge
	}
	r.succ[from] = append(r.succ[from], to)
	r.pred[to] = append(r.pred[to], from)
	return nil
}

func (r *refGraph) removeEdge(from, to NodeID) error {
	i := slices.Index(r.succ[from], to)
	if i < 0 {
		return ErrUnknownNode
	}
	r.succ[from] = slices.Delete(r.succ[from], i, i+1)
	r.pred[to] = slices.DeleteFunc(r.pred[to], func(p NodeID) bool { return p == from })
	return nil
}

func (r *refGraph) insertOnEdge(from, to NodeID, chain ...*Node) error {
	if !slices.Contains(r.succ[from], to) {
		return ErrUnknownNode
	}
	for _, n := range chain {
		n.Generated = true
		if err := r.addNode(n); err != nil {
			return err
		}
	}
	r.removeEdge(from, to)
	prev := from
	for _, n := range chain {
		if err := r.addEdge(prev, n.ID); err != nil {
			return err
		}
		prev = n.ID
	}
	return r.addEdge(prev, to)
}

// replaceNode substitutes id by the single node n.
func (r *refGraph) replaceNode(id NodeID, n *Node) error {
	if r.nodes[id] == nil {
		return ErrUnknownNode
	}
	n.Generated = true
	if err := r.addNode(n); err != nil {
		return err
	}
	preds, succs := slices.Clone(r.pred[id]), slices.Clone(r.succ[id])
	r.removeNode(id)
	for _, p := range preds {
		if err := r.addEdge(p, n.ID); err != nil {
			return err
		}
	}
	for _, s := range succs {
		if err := r.addEdge(n.ID, s); err != nil {
			return err
		}
	}
	return nil
}

func (r *refGraph) swapWithPredecessor(id NodeID) error {
	if r.nodes[id] == nil {
		return ErrUnknownNode
	}
	if len(r.pred[id]) != 1 || len(r.succ[id]) != 1 {
		return ErrArity
	}
	p := r.pred[id][0]
	if len(r.pred[p]) != 1 || len(r.succ[p]) != 1 {
		return ErrArity
	}
	gp, s := r.pred[p][0], r.succ[id][0]
	r.removeEdge(gp, p)
	r.removeEdge(p, id)
	r.removeEdge(id, s)
	for _, e := range []Edge{{gp, id}, {id, p}, {p, s}} {
		if err := r.addEdge(e.From, e.To); err != nil {
			return err
		}
	}
	return nil
}

func (r *refGraph) edges() []Edge {
	var out []Edge
	for _, id := range r.order {
		for _, s := range r.succ[id] {
			out = append(out, Edge{id, s})
		}
	}
	return out
}

func (r *refGraph) edgeCount() int {
	n := 0
	for _, s := range r.succ {
		n += len(s)
	}
	return n
}

// topoSort is Kahn's algorithm re-sorting the ready list by insertion
// position before every pop.
func (r *refGraph) topoSort() ([]NodeID, error) {
	indeg := map[NodeID]int{}
	pos := map[NodeID]int{}
	var ready []NodeID
	for i, id := range r.order {
		indeg[id], pos[id] = len(r.pred[id]), i
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []NodeID
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, s := range r.succ[id] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != len(r.order) {
		return nil, ErrCycle
	}
	return out, nil
}

func (r *refGraph) longestPath() int {
	order, err := r.topoSort()
	if err != nil {
		return 0
	}
	best, dist := 0, map[NodeID]int{}
	for _, id := range order {
		d := 1
		for _, p := range r.pred[id] {
			d = max(d, dist[p]+1)
		}
		dist[id] = d
		best = max(best, d)
	}
	return best
}

func (r *refGraph) criticalPath(weight func(*Node) float64) ([]NodeID, float64) {
	order, err := r.topoSort()
	if err != nil {
		return nil, 0
	}
	dist, prev := map[NodeID]float64{}, map[NodeID]NodeID{}
	var bestID NodeID
	best := -1.0
	for _, id := range order {
		w := weight(r.nodes[id])
		d := w
		for _, p := range r.pred[id] {
			if dist[p]+w > d {
				d, prev[id] = dist[p]+w, p
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
	for id, ok := bestID, true; ok; id, ok = prev[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	return path, best
}

func (r *refGraph) upstreamDistance() map[NodeID]int {
	order, err := r.topoSort()
	dist := map[NodeID]int{}
	if err != nil {
		return dist
	}
	for _, id := range order {
		for i, p := range r.pred[id] {
			if i == 0 || dist[p]+1 < dist[id] {
				dist[id] = dist[p] + 1
			}
		}
		if len(r.pred[id]) == 0 {
			dist[id] = 0
		}
	}
	return dist
}

func (r *refGraph) components() int {
	seen := map[NodeID]bool{}
	n := 0
	for _, id := range r.order {
		if seen[id] {
			continue
		}
		n++
		seen[id] = true
		for stack := []NodeID{id}; len(stack) > 0; {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range append(slices.Clone(r.succ[cur]), r.pred[cur]...) {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
	}
	return n
}

// rebuild is a fresh Graph with the reference's nodes and edges, added in
// its insertion order: no empty slots, no clone history, no caches.
func (r *refGraph) rebuild() *Graph {
	g := New(r.name)
	for _, id := range r.order {
		g.MustAddNode(r.nodes[id].Clone())
	}
	for _, e := range r.edges() {
		g.MustAddEdge(e.From, e.To)
	}
	return g
}

// nodeState renders what the model test compares of a node.
func nodeState(n *Node) string {
	return fmt.Sprintf("%s %s %+v %v", n.ID, n.canonical(), n.Cost, n.Generated)
}

// compareModel checks every observation of g against the reference r.
func compareModel(g *Graph, r *refGraph) error {
	if !slices.Equal(g.NodeIDs(), r.order) {
		return fmt.Errorf("NodeIDs %v, reference %v", g.NodeIDs(), r.order)
	}
	if !slices.Equal(g.Edges(), r.edges()) {
		return fmt.Errorf("Edges %v, reference %v", g.Edges(), r.edges())
	}
	if g.Len() != len(r.order) || g.EdgeCount() != r.edgeCount() {
		return fmt.Errorf("Len/EdgeCount %d/%d, reference %d/%d", g.Len(), g.EdgeCount(), len(r.order), r.edgeCount())
	}
	for _, id := range r.order {
		if got, want := nodeState(g.Node(id)), nodeState(r.nodes[id]); got != want {
			return fmt.Errorf("node %s is %s, reference %s", id, got, want)
		}
		if !slices.Equal(g.Pred(id), r.pred[id]) || !slices.Equal(g.Succ(id), r.succ[id]) {
			return fmt.Errorf("node %s: Pred/Succ %v/%v, reference %v/%v", id, g.Pred(id), g.Succ(id), r.pred[id], r.succ[id])
		}
	}
	order, err := g.TopoSort()
	want, werr := r.topoSort()
	if !errors.Is(err, werr) || !slices.Equal(order, want) {
		return fmt.Errorf("TopoSort %v (%v), reference %v (%v)", order, err, want, werr)
	}
	if oracle, _ := topoSortSliceOracle(g); !slices.Equal(order, oracle) {
		return fmt.Errorf("TopoSort %v, slice oracle %v", order, oracle)
	}
	if got, want := g.LongestPath(), r.longestPath(); got != want {
		return fmt.Errorf("LongestPath %d, reference %d", got, want)
	}
	weight := func(n *Node) float64 { return n.Cost.PerTuple }
	path, w := g.CriticalPath(weight)
	wantPath, wantW := r.criticalPath(weight)
	if !slices.Equal(path, wantPath) || w != wantW {
		return fmt.Errorf("CriticalPath %v %g, reference %v %g", path, w, wantPath, wantW)
	}
	wantDist := r.upstreamDistance()
	for _, id := range append(slices.Clone(r.order), "unknown") {
		if got, want := g.UpstreamDistance(id), wantDist[id]; got != want {
			return fmt.Errorf("UpstreamDistance(%s) %d, reference %d", id, got, want)
		}
	}
	if got, want := g.Components(), r.components(); got != want {
		return fmt.Errorf("Components %d, reference %d", got, want)
	}
	if got, want := g.Fingerprint(), r.rebuild().Fingerprint(); got != want {
		return fmt.Errorf("Fingerprint %s, rebuilt flow %s", got, want)
	}
	return CheckKeys(g)
}

// modelPair is one graph under test and its reference.
type modelPair struct {
	g *Graph
	r *refGraph
}

// modelStep applies one random mutation to a random pair (the parent or
// one of its clones) and returns a description of it. IDs come from a
// small pool, so removed IDs are re-added and operations often fail; the
// reference must fail the same way.
func modelStep(rng *rand.Rand, pairs *[]modelPair, fresh *int) (string, error) {
	p := (*pairs)[rng.Intn(len(*pairs))]
	pick := func() NodeID { return NodeID(fmt.Sprintf("n%d", rng.Intn(10))) }
	kinds := []OpKind{OpExtract, OpDerive, OpDerive, OpMerge, OpCheckpoint, OpLoad, OpPartition, OpSplit}
	newNode := func(id NodeID) (*Node, *Node) {
		k := kinds[rng.Intn(len(kinds))]
		n := NewNode(id, fmt.Sprintf("op%d", rng.Intn(3)), k, NewSchema(Attribute{Name: "x", Type: TypeInt}))
		n.Cost.PerTuple = float64(rng.Intn(4))
		if k == OpSplit && rng.Intn(2) == 0 {
			n.SetParam(ParamRoute, "hash")
		}
		return n, n.Clone()
	}
	// edits are the in-place node edits, applied through MutableNode to the
	// graph and directly to the reference: what the fingerprint reads
	// (name, params, schema, parallelism) and what only the cone keys read
	// (selectivity, schema order), plus a split's routing, which moves its
	// successors' streams.
	edits := []func(n *Node, v int){
		func(n *Node, v int) { n.Name, n.Cost.PerTuple = fmt.Sprintf("op%d", v), float64(v) },
		func(n *Node, v int) { n.Cost.Selectivity = float64(v) / 4 },
		func(n *Node, v int) { n.SetParam(ParamAttrs, fmt.Sprintf("x%d", v)) },
		func(n *Node, v int) { n.SetParam(fmt.Sprintf("note%d", v), "1") },
		func(n *Node, v int) { n.SetParam(ParamRoute, []string{"hash", ""}[v%2]) },
		func(n *Node, v int) {
			n.Out = n.Out.With(Attribute{Name: fmt.Sprintf("y%d", v), Type: AttrType(v), Nullable: v%2 == 0})
		},
		func(n *Node, v int) { slices.Reverse(n.Out.Attrs) },
		func(n *Node, v int) { n.Parallelism = v + 1 },
	}
	freshID := func() NodeID {
		*fresh++
		return NodeID(fmt.Sprintf("g%d", *fresh))
	}
	anyEdge := func() (NodeID, NodeID) {
		if es := p.r.edges(); len(es) > 0 && rng.Intn(4) > 0 {
			e := es[rng.Intn(len(es))]
			return e.From, e.To
		}
		return pick(), pick()
	}
	var desc string
	var err, werr error
	switch op := rng.Intn(12); op {
	case 0, 1:
		n, c := newNode(pick())
		desc, err, werr = "AddNode "+string(n.ID), p.g.AddNode(n), p.r.addNode(c)
	case 2:
		id := pick()
		desc, err, werr = "RemoveNode "+string(id), p.g.RemoveNode(id), p.r.removeNode(id)
	case 3, 4, 10, 11:
		// Sources drawn from a few IDs grow long successor lists, whose
		// spare capacity a parent and its clone must not both append into.
		a, b := NodeID(fmt.Sprintf("n%d", rng.Intn(3))), pick()
		desc, err, werr = fmt.Sprintf("AddEdge %s->%s", a, b), p.g.AddEdge(a, b), p.r.addEdge(a, b)
	case 5:
		a, b := anyEdge()
		desc, err, werr = fmt.Sprintf("RemoveEdge %s->%s", a, b), p.g.RemoveEdge(a, b), p.r.removeEdge(a, b)
	case 6:
		a, b := anyEdge()
		n1, c1 := newNode(freshID())
		chain, refChain := []*Node{n1}, []*Node{c1}
		if rng.Intn(2) == 0 {
			n2, c2 := newNode(freshID())
			chain, refChain = append(chain, n2), append(refChain, c2)
		}
		desc = fmt.Sprintf("InsertOnEdge %s->%s (%d)", a, b, len(chain))
		err, werr = p.g.InsertOnEdge(a, b, chain...), p.r.insertOnEdge(a, b, refChain...)
	case 7:
		id := pick()
		n, c := newNode(freshID())
		desc = fmt.Sprintf("ReplaceNode %s by %s", id, n.ID)
		err, werr = p.g.ReplaceNode(id, n.ID, n.ID, n), p.r.replaceNode(id, c)
	case 8:
		id := pick()
		desc, err, werr = "SwapWithPredecessor "+string(id), p.g.SwapWithPredecessor(id), p.r.swapWithPredecessor(id)
	case 9:
		if rng.Intn(2) == 0 {
			*pairs = append(*pairs, modelPair{p.g.Clone(), p.r.clone()})
			return "Clone", nil
		}
		id, e, v := pick(), rng.Intn(len(edits)), rng.Intn(4)
		if n := p.g.MutableNode(id); n != nil {
			edits[e](n, v)
		}
		if n := p.r.nodes[id]; n != nil {
			edits[e](n, v)
		}
		return fmt.Sprintf("MutableNode %s edit %d", id, e), nil
	}
	if (err == nil) != (werr == nil) || werr != nil && !errors.Is(err, werr) {
		return desc, fmt.Errorf("%s: error %v, reference %v", desc, err, werr)
	}
	return desc, nil
}

// The slot-indexed Graph must behave exactly like the map-based reference
// under random sequences of every mutation, Clone included. After each step
// every graph of the sequence (a parent and all its clones) is compared
// with its own reference, so a clone's edit leaking into its parent, or the
// reverse, fails the step; its fingerprint and cone keys, computed
// incrementally from the memo its last clone point published, must equal a
// scratch pass. The flows every sequence passes through must
// also fingerprint into the same equality classes as the WL refinement.
func TestGraphMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []modelPair{{New("model"), newRefGraph("model")}}
		fresh := 0
		var seen []*Graph
		var trail []string
		for step := 0; step < 80; step++ {
			desc, err := modelStep(rng, &pairs, &fresh)
			trail = append(trail, desc)
			if err == nil {
				for i, p := range pairs {
					if err = compareModel(p.g, p.r); err != nil {
						err = fmt.Errorf("graph %d: %w", i, err)
						break
					}
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v\nsteps: %v", seed, step, err, trail)
			}
			for _, p := range pairs {
				if _, err := p.g.TopoOrder(); err == nil {
					seen = append(seen, p.g.Clone())
				}
			}
		}
		if _, err := samePartition(seen); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Workers clone one shared parent and mutate their clones concurrently,
// as the planner's evaluation workers do; run with -race. Each clone must
// end up exactly as the same edits applied sequentially leave a clone, and
// the parent must not change.
func TestGraphConcurrentClones(t *testing.T) {
	parent := randomDAG(rand.New(rand.NewSource(7)), 12)
	before := refOf(parent)
	edit := func(w int, g *Graph) error {
		e := g.Edges()[w%parent.EdgeCount()]
		n := NewNode(NodeID(fmt.Sprintf("w%d", w)), "worker", OpDerive, Schema{})
		if err := g.InsertOnEdge(e.From, e.To, n); err != nil {
			return err
		}
		g.MutableNode(e.From).Cost.PerTuple += float64(w)
		g.MutableNode(e.To).Name = fmt.Sprintf("edited%d", w)
		if w%2 == 0 {
			return g.RemoveNode(n.ID)
		}
		return nil
	}
	const workers = 8
	got := make([]*Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				c := parent.Clone()
				if err := edit(w, c); err != nil {
					t.Error(err)
					return
				}
				_ = c.Fingerprint()
				_, _ = parent.TopoOrder()
				_ = parent.Fingerprint()
				got[w] = c
			}
		}()
	}
	wg.Wait()
	for w, c := range got {
		want := parent.Clone()
		if err := edit(w, want); err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() != want.Fingerprint() || !slices.Equal(c.Edges(), want.Edges()) {
			t.Errorf("worker %d: concurrent clone differs from a sequential one", w)
		}
	}
	if err := compareModel(parent, before); err != nil {
		t.Errorf("parent changed under its clones: %v", err)
	}
}
