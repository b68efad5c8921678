package etl_test

import (
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/tpcds"
)

// Sinks keep the results on the heap, as the planner's are.
var (
	cloneSink   *etl.Graph
	longestSink int
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
}
