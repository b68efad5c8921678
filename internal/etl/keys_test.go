package etl

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// scratchCopy is g with nothing memoized: the same slot tables and
// adjacency lists, fresh copies of the nodes (no digest memo), and no topo
// order, fingerprint, key memo, base or log. Its key passes hash every slot.
func scratchCopy(g *Graph) *Graph {
	c := &Graph{Name: g.Name, succ: g.succ, pred: g.pred, live: g.live, edges: g.edges, index: g.index, overlay: g.overlay, seq: g.seq}
	c.nodes = make([]*Node, len(g.nodes))
	for s, n := range g.nodes {
		if n != nil {
			c.nodes[s] = n.Clone()
		}
	}
	return c
}

// scratchKeys recomputes g's fingerprint and cone keys (aligned with its
// topological order) without any memo.
func scratchKeys(g *Graph) (string, []ConeKey, error) {
	c := scratchCopy(g)
	order, err := c.TopoOrder()
	if err != nil {
		return c.Fingerprint(), nil, err
	}
	return c.Fingerprint(), c.ConeKeys(order), nil
}

// CheckKeys compares g's memoized, incremental fingerprint and cone keys
// with a scratch recompute; tests outside the package use it too.
func CheckKeys(g *Graph) error {
	fp, keys, err := scratchKeys(g)
	if got := g.Fingerprint(); got != fp {
		return fmt.Errorf("Fingerprint %s, from scratch %s", got, fp)
	}
	if err != nil {
		return nil
	}
	order, _ := g.TopoOrder()
	for i, k := range g.ConeKeys(order) {
		if k != keys[i] {
			return fmt.Errorf("cone key of %s differs from scratch", order[i])
		}
	}
	// The same keys through a fresh copy of the order, which takes the
	// index lookup instead of the cached slots.
	if !slices.Equal(g.ConeKeys(slices.Clone(order)), keys) {
		return fmt.Errorf("ConeKeys over a copied order differ from scratch")
	}
	return nil
}

// A clone keys its edited slots and everything they reach; the flags must
// name exactly the slots a pass recomputes, and the keys must match a
// scratch pass after each kind of edit, including a successor list change
// that moves a partition's ports without touching its branches.
func TestIncrementalKeysAfterEachEdit(t *testing.T) {
	s := NewSchema(Attribute{Name: "id", Type: TypeInt, Key: true}, Attribute{Name: "v", Type: TypeFloat, Nullable: true})
	build := func() *Graph {
		g := New("fan")
		for _, n := range []*Node{
			NewNode("src", "S", OpExtract, s), NewNode("part", "P", OpPartition, s),
			NewNode("a", "A", OpDerive, s), NewNode("b", "B", OpDerive, s), NewNode("c", "C", OpDerive, s),
			NewNode("m", "M", OpMerge, s), NewNode("t", "T", OpDerive, s), NewNode("u", "U", OpFilter, s),
			NewNode("ld", "L", OpLoad, s),
		} {
			g.MustAddNode(n)
		}
		for _, e := range [][2]NodeID{{"src", "part"}, {"part", "a"}, {"part", "b"}, {"a", "m"}, {"b", "m"}, {"m", "t"}, {"t", "u"}, {"u", "ld"}} {
			g.MustAddEdge(e[0], e[1])
		}
		g.MustAddNode(NewNode("c2", "C2", OpLoad, s))
		g.MustAddEdge("c", "c2")
		return g
	}
	edits := map[string]func(*Graph) error{
		"fan-out grows":   func(g *Graph) error { return g.AddEdge("part", "c") },
		"fan-out shrinks": func(g *Graph) error { return g.RemoveEdge("part", "b") },
		"branch removed":  func(g *Graph) error { return g.RemoveNode("a") },
		"insert":          func(g *Graph) error { return g.InsertOnEdge("src", "part", NewNode("f", "F", OpFilter, s)) },
		"selectivity":     func(g *Graph) error { g.MutableNode("src").Cost.Selectivity = 0.3; return nil },
		"schema":          func(g *Graph) error { g.MutableNode("part").Out.Attrs[1].Nullable = false; return nil },
		"param":           func(g *Graph) error { g.MutableNode("a").SetParam(ParamGroupBy, "id"); return nil },
		"kind to split":   func(g *Graph) error { g.MutableNode("part").Kind = OpSplit; return nil },
		"swap":            func(g *Graph) error { return g.SwapWithPredecessor("u") },
		"replace": func(g *Graph) error {
			return g.ReplaceNode("b", "b2", "b2", NewNode("b2", "B2", OpAggregate, s))
		},
	}
	for what, edit := range edits {
		parent := build()
		if err := CheckKeys(parent); err != nil {
			t.Fatal(err)
		}
		c := parent.Clone()
		if c.base == nil || c.base != parent.memo.Load() {
			t.Fatalf("%s: the clone did not inherit the parent's memo", what)
		}
		if err := edit(c); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := CheckKeys(c); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		// A grandchild keys from the clone's memo, built incrementally.
		gc := c.Clone()
		e := gc.Edges()[0]
		if err := gc.InsertOnEdge(e.From, e.To, NewNode("cp", "CP", OpCheckpoint, s)); err != nil {
			t.Fatal(err)
		}
		if err := CheckKeys(gc); err != nil {
			t.Errorf("%s, then a grandchild: %v", what, err)
		}
		if err := CheckKeys(parent); err != nil {
			t.Errorf("%s: the parent changed: %v", what, err)
		}
	}
}

// A mutation after the memo was published makes that memo the base and
// restarts the log, so a parent edited between clones keys correctly, and
// so do its earlier clones.
func TestMemoRebasesOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomDAG(rng, 14)
	first := g.Clone()
	if g.memo.Load() == nil {
		t.Fatal("Clone did not publish the parent's memo")
	}
	e := g.Edges()[0]
	if err := g.InsertOnEdge(e.From, e.To, NewNode("ins", "ins", OpDerive, Schema{})); err != nil {
		t.Fatal(err)
	}
	if g.memo.Load() != nil || g.base != first.base || len(g.log) == 0 {
		t.Fatal("a mutation must drop the memo, keep it as the base and log the edit")
	}
	second := g.Clone()
	for i, c := range []*Graph{g, first, second} {
		if err := CheckKeys(c); err != nil {
			t.Errorf("graph %d: %v", i, err)
		}
	}
}

// Leaf clones, which are never cloned themselves, publish no memo.
func TestLeafClonesKeepNoMemo(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(5)), 10)
	c := g.Clone()
	e := c.Edges()[1]
	if err := c.InsertOnEdge(e.From, e.To, NewNode("x", "x", OpFilter, Schema{})); err != nil {
		t.Fatal(err)
	}
	if err := CheckKeys(c); err != nil {
		t.Fatal(err)
	}
	if c.memo.Load() != nil {
		t.Error("keying a clone published a memo on it")
	}
}

// Eight goroutines clone one parent that has a base and a log, so they race
// to build and publish its memo incrementally; every clone must key like a
// scratch pass and share the one published memo. Run with -race.
func TestConcurrentMemoFill(t *testing.T) {
	root := randomDAG(rand.New(rand.NewSource(11)), 16)
	parent := root.Clone()
	e := parent.Edges()[2]
	if err := parent.InsertOnEdge(e.From, e.To, NewNode("p", "p", OpFilterNull, Schema{})); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	clones := make([]*Graph, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := parent.Clone()
			e := c.Edges()[w%c.EdgeCount()]
			errs[w] = c.InsertOnEdge(e.From, e.To, NewNode(NodeID(fmt.Sprintf("w%d", w)), "w", OpDerive, Schema{}))
			if errs[w] == nil {
				errs[w] = CheckKeys(c)
			}
			clones[w] = c
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
		if clones[w].base != parent.memo.Load() {
			t.Errorf("worker %d: the clone's base is not the published memo", w)
		}
	}
}
