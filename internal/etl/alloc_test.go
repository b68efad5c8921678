package etl_test

import (
	"fmt"
	"runtime"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/tpcds"
)

// Sinks keep the results on the heap, as the planner's are.
var (
	cloneSink   *etl.Graph
	longestSink int
	fpSink      string
	keysSink    []etl.ConeKey
)

// The planner pays one Clone and a dozen topological passes per generated
// alternative. These bounds keep a per-pass map from creeping back into the
// slot-indexed graph: Clone copies three slot tables (plus the Graph
// itself), and a pass over a cached topological order needs one scratch
// slice.
func TestGraphPassAllocations(t *testing.T) {
	g := tpcds.SalesETL()
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Clone", 4, func() { cloneSink = g.Clone() }},
		{"LongestPath", 1, func() { longestSink = g.LongestPath() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", c.name, got, c.max)
		}
	}

	// Keying a derived design: a clone with one inserted node, fingerprinted
	// and cone-keyed. The clone inherits the parent's key memo, so the
	// passes hash the new node's digests and the slots below it into stack
	// scratch: what they allocate is the new node's digest memo, the
	// fingerprint string (and the pointer caching it) and the returned keys.
	var n int
	edit := func() (*etl.Graph, []etl.NodeID) {
		n++
		c := g.Clone()
		x := etl.NewNode(etl.NodeID(fmt.Sprintf("x%d", n)), "x", etl.OpFilterNull, c.Node("conv_sales").Out)
		if err := c.InsertOnEdge("conv_sales", "lkp_item", x); err != nil {
			t.Fatal(err)
		}
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		return c, order
	}
	base := testing.AllocsPerRun(100, func() { cloneSink, _ = edit() })
	keyed := testing.AllocsPerRun(100, func() {
		c, order := edit()
		fpSink, keysSink = c.Fingerprint(), c.ConeKeys(order)
	})
	if got, max := keyed-base, 5.0; got > max {
		t.Errorf("keying a clone after one InsertOnEdge allocates %.0f objects, want at most %.0f (%.0f in all)", got, max, keyed)
	}
}

// A clone shares its parent's ID index, so adding a node to it must not copy
// the index: AddNode on a clone of a 258-node chain allocates no more
// objects than on a 10-node chain, and no more bytes beyond the clone's
// per-slot ownership stamps (one uint64 per slot).
func TestCloneAddNodeAllocsFlatInNodeCount(t *testing.T) {
	const clones = 200
	measure := func(n int) (allocs, bytes int64) {
		g := etl.New("chain")
		prev := etl.NodeID("n0")
		g.MustAddNode(etl.NewNode(prev, "n0", etl.OpExtract, etl.Schema{}))
		for i := 1; i < n; i++ {
			id := etl.NodeID(fmt.Sprintf("n%d", i))
			g.MustAddNode(etl.NewNode(id, string(id), etl.OpNoop, etl.Schema{}))
			g.MustAddEdge(prev, id)
			prev = id
		}
		x := etl.NewNode("x", "x", etl.OpNoop, etl.Schema{})
		cs := make([]*etl.Graph, clones)
		for i := range cs {
			cs[i] = g.Clone()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range cs {
			if err := c.AddNode(x); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(cs)
		return int64(after.Mallocs-before.Mallocs) / clones, int64(after.TotalAlloc-before.TotalAlloc) / clones
	}
	smallAllocs, smallBytes := measure(10)
	bigAllocs, bigBytes := measure(258)
	if bigAllocs > smallAllocs {
		t.Errorf("AddNode on a clone allocates %d objects on a 258-node chain, %d on a 10-node chain", bigAllocs, smallAllocs)
	}
	if grow := bigBytes - smallBytes; grow > 16*248 {
		t.Errorf("AddNode on a clone allocates %d bytes more on a 258-node chain than on a 10-node chain", grow)
	}
}
