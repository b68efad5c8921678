package etl_test

import (
	"fmt"
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
