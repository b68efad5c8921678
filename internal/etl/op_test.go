package etl

import (
	"strings"
	"testing"
)

func allKinds() []OpKind {
	return []OpKind{
		OpExtract, OpLoad, OpFilter, OpFilterNull, OpDerive, OpProject,
		OpConvert, OpSurrogate, OpJoin, OpLookup, OpAggregate, OpSort,
		OpDedup, OpUnion, OpSplit, OpPartition, OpMerge, OpCheckpoint,
		OpRecovery, OpCrosscheck, OpEncrypt, OpNoop,
	}
}

func TestOpKindStringRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		if got := ParseOpKind(k.String()); got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if ParseOpKind("bogus") != OpUnknown {
		t.Error("unknown name should parse to OpUnknown")
	}
	if OpKind(99).String() != "invalid" || OpKind(-1).String() != "invalid" {
		t.Error("out-of-range kinds should render invalid")
	}
	if ParseOpKind("  Filter ") != OpFilter {
		t.Error("parse should trim and lower-case")
	}
}

func TestOpKindClassification(t *testing.T) {
	if !OpExtract.IsSource() || !OpRecovery.IsSource() || OpFilter.IsSource() {
		t.Error("IsSource misbehaves")
	}
	if !OpLoad.IsSink() || OpMerge.IsSink() {
		t.Error("IsSink misbehaves")
	}
	for _, k := range []OpKind{OpAggregate, OpSort, OpDedup, OpJoin} {
		if !k.IsBlocking() {
			t.Errorf("%v should be blocking", k)
		}
	}
	for _, k := range []OpKind{OpFilter, OpDerive, OpExtract, OpLoad} {
		if k.IsBlocking() {
			t.Errorf("%v should not be blocking", k)
		}
	}
}

func TestOpKindArity(t *testing.T) {
	cases := []struct {
		k             OpKind
		maxIn, maxOut int
	}{
		{OpExtract, 0, 1},
		{OpLoad, 1, 0},
		{OpJoin, 2, 1},
		{OpCrosscheck, 2, 1},
		{OpUnion, -1, 1},
		{OpMerge, -1, 1},
		{OpSplit, 1, -1},
		{OpPartition, 1, -1},
		{OpCheckpoint, 1, 2},
		{OpFilter, 1, 1},
	}
	for _, c := range cases {
		if got := c.k.MaxInputs(); got != c.maxIn {
			t.Errorf("%v MaxInputs = %d, want %d", c.k, got, c.maxIn)
		}
		if got := c.k.MaxOutputs(); got != c.maxOut {
			t.Errorf("%v MaxOutputs = %d, want %d", c.k, got, c.maxOut)
		}
	}
}

func TestDefaultCostSanity(t *testing.T) {
	for _, k := range allKinds() {
		c := DefaultCost(k)
		if c.Selectivity <= 0 || c.Selectivity > 1 {
			t.Errorf("%v selectivity = %f", k, c.Selectivity)
		}
		if c.PerTuple < 0 || c.Startup < 0 || c.FailureRate < 0 || c.FailureRate >= 1 {
			t.Errorf("%v cost out of range: %+v", k, c)
		}
	}
	// Derive is the canonical expensive row-level op.
	if DefaultCost(OpDerive).PerTuple <= DefaultCost(OpProject).PerTuple {
		t.Error("derive should cost more than project")
	}
	// Cleaning ops drop rows.
	if DefaultCost(OpFilterNull).Selectivity >= 1 {
		t.Error("null filter should have selectivity < 1")
	}
}

func TestNodeHelpers(t *testing.T) {
	n := NewNode("a", "derive_x", OpDerive, NewSchema(Attribute{Name: "x", Type: TypeInt}))
	if n.Parallelism != 1 {
		t.Error("default parallelism should be 1")
	}
	if got := n.String(); !strings.Contains(got, "a") || !strings.Contains(got, "derive") {
		t.Errorf("String = %q", got)
	}
	w1 := n.WorkPerTuple()
	n.Parallelism = 4
	if got := n.WorkPerTuple(); got != w1/4 {
		t.Errorf("WorkPerTuple with parallelism = %f, want %f", got, w1/4)
	}
	n.Parallelism = 0 // degenerate: clamped to 1
	if got := n.WorkPerTuple(); got != w1 {
		t.Errorf("WorkPerTuple with parallelism 0 = %f", got)
	}
	n.SetParam("k", "v")
	if n.Param("k") != "v" || n.Param("missing") != "" {
		t.Error("params misbehave")
	}
	// SetParam on a node with nil map must not panic.
	m := &Node{ID: "m"}
	m.SetParam("a", "b")
	if m.Param("a") != "b" {
		t.Error("SetParam on nil map")
	}
}

func TestComplexityOrdersBlockingHigher(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	sortN := NewNode("s", "sort", OpSort, s)
	convN := NewNode("c", "conv", OpConvert, s)
	sortN.Cost.PerTuple = convN.Cost.PerTuple
	sortN.Cost.Startup = convN.Cost.Startup
	if sortN.Complexity() <= convN.Complexity() {
		t.Error("blocking op should be more complex at equal cost")
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{From: "a", To: "b"}
	if e.String() != "a->b" {
		t.Errorf("Edge.String = %q", e.String())
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	// Edge between unknown nodes.
	if _, err := NewBuilder("x").Edge("zz", "yy").Build(); err == nil {
		t.Error("Edge between unknown nodes should fail")
	}
	// Duplicate explicit IDs.
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	if _, err := NewBuilder("x").
		Op("a", "a", OpExtract, s).
		Op("a", "dup", OpLoad, Schema{}).
		Build(); err == nil {
		t.Error("duplicate ID should fail")
	}
	// Errors stick: later calls are no-ops.
	b := NewBuilder("x").Edge("zz", "yy")
	b.Op("a", "a", OpExtract, s).Op("b", "DW", OpLoad, Schema{})
	if _, err := b.Build(); err == nil {
		t.Error("error should persist")
	}
	// MustBuild panics on invalid flows.
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic")
		}
	}()
	NewBuilder("x").Op("only", "f", OpFilter, s).MustBuild()
}

func TestBuilderChainAndAdd(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	b := NewBuilder("x")
	b.Add(NewNode("src", "S", OpExtract, s))
	b.Add(NewNode("mid", "conv", OpConvert, s))
	b.Edge("src", "mid")
	b.Op("ld", "DW", OpLoad, Schema{})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("src", "mid") || !g.HasEdge("mid", "ld") {
		t.Errorf("chain wiring wrong:\n%s", g)
	}
	// Add with empty ID mints one.
	b2 := NewBuilder("y")
	b2.Add(NewNode("", "anon", OpExtract, s))
	if b2.Graph().Len() != 1 {
		t.Error("anonymous Add failed")
	}
}

func TestBuilderCursorSchemaDefault(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	g := NewBuilder("d").
		Op("src", "S", OpExtract, s).
		Op("f", "filter", OpFilter, Schema{}). // inherits cursor schema
		Op("ld", "DW", OpLoad, Schema{}).
		MustBuild()
	if !g.Node("f").Out.Has("x") {
		t.Error("cursor schema not inherited")
	}
}
