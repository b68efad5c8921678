package etl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertOnEdge(t *testing.T) {
	g := linearFlow(t)
	before := g.Len()
	n := NewNode(g.FreshID("fnv"), "filter_nulls", OpFilterNull, g.Node("src").Out.WithoutNullability())
	if err := g.InsertOnEdge("src", "flt", n); err != nil {
		t.Fatal(err)
	}
	if g.Len() != before+1 {
		t.Errorf("len = %d", g.Len())
	}
	if g.HasEdge("src", "flt") {
		t.Error("original edge should be gone")
	}
	if !g.HasEdge("src", n.ID) || !g.HasEdge(n.ID, "flt") {
		t.Error("chain not wired")
	}
	if !n.Generated {
		t.Error("inserted node should be marked Generated")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("flow invalid after insertion: %v", err)
	}
}

func TestInsertOnEdgeChain(t *testing.T) {
	g := linearFlow(t)
	s := g.Node("flt").Out
	a := NewNode(g.FreshID("cp"), "persist", OpCheckpoint, s)
	b := NewNode(g.FreshID("enc"), "encrypt", OpEncrypt, s)
	if err := g.InsertOnEdge("flt", "drv", a, b); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("flt", a.ID) || !g.HasEdge(a.ID, b.ID) || !g.HasEdge(b.ID, "drv") {
		t.Error("chain of two not wired in order")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid after chain insertion: %v", err)
	}
}

func TestInsertOnEdgeErrors(t *testing.T) {
	g := linearFlow(t)
	if err := g.InsertOnEdge("src", "flt"); err == nil {
		t.Error("empty chain should fail")
	}
	n := NewNode("x", "x", OpNoop, Schema{})
	if err := g.InsertOnEdge("src", "load", n); err == nil {
		t.Error("nonexistent edge should fail")
	}
	// failed insertion must not leave the node behind
	if g.Node("x") != nil {
		t.Error("failed InsertOnEdge leaked a node")
	}
}

func TestReplaceNodeWithSubflow(t *testing.T) {
	g := linearFlow(t)
	in := g.InputSchema("drv") // schema flowing into the replaced node
	out := g.Node("drv").Out
	part := NewNode("part", "partition", OpPartition, in)
	c1 := NewNode("c1", "derive_copy1", OpDerive, out)
	c2 := NewNode("c2", "derive_copy2", OpDerive, out)
	mrg := NewNode("mrg", "merge", OpMerge, out)
	if err := g.ReplaceNode("drv", "part", "mrg", part, c1, c2, mrg); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge("part", "c1")
	g.MustAddEdge("part", "c2")
	g.MustAddEdge("c1", "mrg")
	g.MustAddEdge("c2", "mrg")
	if g.Node("drv") != nil {
		t.Error("replaced node still present")
	}
	if !g.HasEdge("flt", "part") || !g.HasEdge("mrg", "load") {
		t.Error("entry/exit not rewired")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid after replacement: %v", err)
	}
	if g.LongestPath() != 6 {
		t.Errorf("longest path = %d, want 6", g.LongestPath())
	}
}

func TestReplaceNodeErrors(t *testing.T) {
	g := linearFlow(t)
	if err := g.ReplaceNode("nope", "a", "b"); err == nil {
		t.Error("replacing unknown node should fail")
	}
	if err := g.ReplaceNode("drv", "nope", "nope"); err == nil {
		t.Error("unknown entry should fail")
	}
}

// Property: InsertOnEdge on a random edge of a random DAG preserves
// acyclicity, adds exactly one node, and preserves reachability from the
// edge source to the edge target.
func TestInsertOnEdgePreservesDAG(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%30)+3)
		edges := g.Edges()
		if len(edges) == 0 {
			return true
		}
		e := edges[rng.Intn(len(edges))]
		n := NewNode(g.FreshID("ins"), "ins", OpNoop, g.Node(e.From).Out)
		before := g.Len()
		if err := g.InsertOnEdge(e.From, e.To, n); err != nil {
			return false
		}
		if g.Len() != before+1 {
			return false
		}
		if _, err := g.TopoSort(); err != nil {
			return false
		}
		return g.HasEdge(e.From, n.ID) && g.HasEdge(n.ID, e.To)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the source schemata are never altered by insertions (POIESIS
// keeps "the data sources schemata constant").
func TestInsertKeepsSourceSchemata(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 10)
		var before []string
		for _, s := range g.Sources() {
			before = append(before, s.Out.String())
		}
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		n := NewNode(g.FreshID("x"), "x", OpNoop, g.Node(e.From).Out)
		if err := g.InsertOnEdge(e.From, e.To, n); err != nil {
			return false
		}
		var after []string
		for _, s := range g.Sources() {
			after = append(after, s.Out.String())
		}
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
