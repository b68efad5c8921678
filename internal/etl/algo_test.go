package etl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLongestPath(t *testing.T) {
	if got := linearFlow(t).LongestPath(); got != 4 {
		t.Errorf("linear longest path = %d, want 4", got)
	}
	if got := diamondFlow(t).LongestPath(); got != 5 {
		t.Errorf("diamond longest path = %d, want 5", got)
	}
	if got := New("empty").LongestPath(); got != 0 {
		t.Errorf("empty longest path = %d", got)
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamondFlow(t)
	g.Node("a").Cost.PerTuple = 10
	g.Node("b").Cost.PerTuple = 1
	path, w := g.CriticalPath(func(n *Node) float64 { return n.Cost.PerTuple })
	if w <= 0 {
		t.Fatalf("critical path weight = %f", w)
	}
	foundA := false
	for _, id := range path {
		if id == "a" {
			foundA = true
		}
		if id == "b" {
			t.Error("critical path went through the cheap branch")
		}
	}
	if !foundA {
		t.Errorf("critical path %v should include expensive node a", path)
	}
	// Path must follow edges.
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Errorf("critical path hop %s->%s is not an edge", path[i], path[i+1])
		}
	}
}

func TestCoupling(t *testing.T) {
	g := linearFlow(t) // 4 nodes, 3 edges -> 1.5
	if got := g.Coupling(); got != 1.5 {
		t.Errorf("coupling = %f, want 1.5", got)
	}
	if got := New("empty").Coupling(); got != 0 {
		t.Errorf("empty coupling = %f", got)
	}
}

func TestMergeCount(t *testing.T) {
	if got := linearFlow(t).MergeCount(); got != 0 {
		t.Errorf("linear merge count = %d", got)
	}
	if got := diamondFlow(t).MergeCount(); got != 1 {
		t.Errorf("diamond merge count = %d", got)
	}
}

func TestCyclomaticAndComponents(t *testing.T) {
	g := diamondFlow(t) // 6 nodes, 6 edges, 1 component -> 6-6+2 = 2
	if got := g.Components(); got != 1 {
		t.Errorf("components = %d", got)
	}
	if got := g.CyclomaticComplexity(); got != 2 {
		t.Errorf("cyclomatic = %d", got)
	}
	// Two disjoint linear flows in one graph (not valid for Validate, fine
	// for the metric).
	g2 := New("two")
	g2.MustAddNode(NewNode("a", "a", OpExtract, Schema{}))
	g2.MustAddNode(NewNode("b", "b", OpLoad, Schema{}))
	g2.MustAddEdge("a", "b")
	g2.MustAddNode(NewNode("c", "c", OpExtract, Schema{}))
	g2.MustAddNode(NewNode("d", "d", OpLoad, Schema{}))
	g2.MustAddEdge("c", "d")
	if got := g2.Components(); got != 2 {
		t.Errorf("components = %d", got)
	}
}

func TestReachable(t *testing.T) {
	g := diamondFlow(t)
	r := g.Reachable("split")
	for _, want := range []NodeID{"a", "b", "merge", "load"} {
		if !r[want] {
			t.Errorf("%s should be reachable from split", want)
		}
	}
	if r["src"] || r["split"] {
		t.Error("reachability includes non-descendants")
	}
}

func TestUpstreamDistance(t *testing.T) {
	g := diamondFlow(t)
	d := g.UpstreamDistance()
	want := map[NodeID]int{"src": 0, "split": 1, "a": 2, "b": 2, "merge": 3, "load": 4}
	for id, w := range want {
		if d[id] != w {
			t.Errorf("dist[%s] = %d, want %d", id, d[id], w)
		}
	}
}

func TestCheckpointFree(t *testing.T) {
	g := linearFlow(t)
	if !g.DownstreamCheckpointFree("src", 10) {
		t.Error("flow without checkpoints should be checkpoint free")
	}
	cp := NewNode(g.FreshID("cp"), "savepoint", OpCheckpoint, g.Node("flt").Out)
	if err := g.InsertOnEdge("flt", "drv", cp); err != nil {
		t.Fatal(err)
	}
	if g.DownstreamCheckpointFree("src", 10) {
		t.Error("downstream checkpoint not detected")
	}
	if g.UpstreamCheckpointFree("load", 10) {
		t.Error("upstream checkpoint not detected")
	}
	if !g.DownstreamCheckpointFree("drv", 10) {
		t.Error("checkpoint is upstream of drv, not downstream")
	}
	// Horizon limits detection.
	if !g.DownstreamCheckpointFree("src", 1) {
		t.Error("checkpoint beyond horizon should be ignored")
	}
}

func TestInputSchema(t *testing.T) {
	g := diamondFlow(t)
	in := g.InputSchema("merge")
	if !in.Has("id") || !in.Has("grp") {
		t.Errorf("merge input schema = %v", in)
	}
	if got := g.InputSchema("src"); !got.IsEmpty() {
		t.Errorf("source input schema = %v", got)
	}
}

// InputSchemaView must equal InputSchema everywhere, including a single
// predecessor whose output repeats an attribute name (Union drops the
// repeat, so the view must fall back to it).
func TestInputSchemaView(t *testing.T) {
	g := diamondFlow(t)
	dup := NewNode("dup", "dup", OpDerive, NewSchema(
		Attribute{Name: "id", Type: TypeInt},
		Attribute{Name: "v", Type: TypeFloat},
		Attribute{Name: "id", Type: TypeString},
	))
	g.MustAddNode(dup)
	g.MustAddNode(NewNode("after", "after", OpFilter, dup.Out))
	g.MustAddEdge("src", "dup")
	g.MustAddEdge("dup", "after")
	for _, id := range g.NodeIDs() {
		if got, want := g.InputSchemaView(id), g.InputSchema(id); !reflect.DeepEqual(got.Attrs, want.Attrs) {
			t.Errorf("%s: view %v, InputSchema %v", id, got, want)
		}
	}
	if got := g.InputSchemaView("after"); got.Len() != 2 {
		t.Errorf("duplicate-name input schema has %d attributes, want 2", got.Len())
	}
}

// randomDAG builds a random layered DAG with n nodes; edges only go from
// lower to higher layers, so it is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New("rand")
	if n < 2 {
		n = 2
	}
	ids := make([]NodeID, n)
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	for i := 0; i < n; i++ {
		kind := OpDerive
		if i == 0 {
			kind = OpExtract
		}
		if i == n-1 {
			kind = OpLoad
		}
		ids[i] = NodeID(rune('a'+i%26)) + NodeID(rune('0'+i/26))
		g.MustAddNode(NewNode(ids[i], string(ids[i]), kind, s))
	}
	for i := 1; i < n; i++ {
		// connect to a random earlier node (keeps it connected)
		from := ids[rng.Intn(i)]
		if !g.HasEdge(from, ids[i]) {
			g.MustAddEdge(from, ids[i])
		}
		// plus a second random forward edge sometimes
		if rng.Intn(3) == 0 {
			j := rng.Intn(i)
			if !g.HasEdge(ids[j], ids[i]) && g.OutDegree(ids[j]) < 1 {
				g.MustAddEdge(ids[j], ids[i])
			}
		}
	}
	return g
}

// Property: TopoSort on random DAGs never errors and respects all edges.
func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%40)+2)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := map[NodeID]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return len(order) == g.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LongestPath is between 1 and |V| and never smaller than the
// number of nodes on the critical path with unit weights.
func TestLongestPathProperty(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%40)+2)
		lp := g.LongestPath()
		if lp < 1 || lp > g.Len() {
			return false
		}
		path, _ := g.CriticalPath(func(*Node) float64 { return 1 })
		return len(path) == lp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
