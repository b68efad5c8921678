package sim

import (
	"slices"
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

func purchasesSchema() etl.Schema {
	return etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "qty", Type: etl.TypeInt},
		etl.Attribute{Name: "price", Type: etl.TypeFloat},
		etl.Attribute{Name: "note", Type: etl.TypeString, Nullable: true},
	)
}

// simpleFlow: extract -> filter -> derive -> load
func simpleFlow(t testing.TB) *etl.Graph {
	t.Helper()
	s := purchasesSchema()
	return etl.NewBuilder("simple").
		Op("src", "S_Purchases", etl.OpExtract, s).
		Op("flt", "filter", etl.OpFilter, s).
		Op("drv", "derive", etl.OpDerive, s.With(etl.Attribute{Name: "total", Type: etl.TypeFloat})).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
}

func binding(g *etl.Graph, rows int, d data.Defects) Binding {
	b := Binding{}
	for _, src := range g.Sources() {
		b[src.ID] = data.SourceSpec{
			Name:           src.Name,
			Schema:         src.Out,
			Rows:           rows,
			Defects:        d,
			UpdatesPerHour: 2,
			Seed:           99,
		}
	}
	return b
}

func TestExecuteSimpleFlow(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 2000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsIn[at(p, "src")] != 2000 {
		t.Errorf("source rows = %d", p.RowsIn[at(p, "src")])
	}
	// Filter selectivity 0.9 by default.
	if p.RowsIn[at(p, "drv")] < 1500 || p.RowsIn[at(p, "drv")] > 2000 {
		t.Errorf("derive input rows = %d", p.RowsIn[at(p, "drv")])
	}
	if p.RowsLoaded != p.RowsIn[at(p, "ld")] {
		t.Errorf("rows loaded %d != sink input %d", p.RowsLoaded, p.RowsIn[at(p, "ld")])
	}
	if p.FirstPassMs <= 0 {
		t.Error("first pass time must be positive")
	}
	if p.LatencyPerTupleMs <= 0 {
		t.Error("latency per tuple must be positive")
	}
	// Completion times must be monotone along edges.
	for _, e := range g.Edges() {
		if p.Completion[at(p, e.From)] > p.Completion[at(p, e.To)] {
			t.Errorf("completion not monotone on %v", e)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	b := binding(g, 1000, data.Defects{NullRate: 0.1, DupRate: 0.05, ErrorRate: 0.05})
	p1, err := e.Execute(g, b)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Execute(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if p1.RowsLoaded != p2.RowsLoaded || p1.FirstPassMs != p2.FirstPassMs ||
		p1.OutNullCells != p2.OutNullCells || p1.OutErrRows != p2.OutErrRows {
		t.Error("execution not deterministic")
	}
}

func TestDeriveAddsAttribute(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 100, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	// OutCells counts sink schema width: 5 attrs after derive.
	if p.OutRows == 0 || p.OutCells != p.OutRows*5 {
		t.Errorf("out cells %d for %d rows", p.OutCells, p.OutRows)
	}
}

func TestFilterNullCleansData(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("cleaning").
		Op("src", "S", etl.OpExtract, s).
		Op("fnv", "filter_nulls", etl.OpFilterNull, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	b := binding(g, 3000, data.Defects{NullRate: 0.2})
	p, err := e.Execute(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutNullCells != 0 {
		t.Errorf("nulls at sink after FilterNull: %d", p.OutNullCells)
	}
	if p.RowsLoaded >= 3000 {
		t.Errorf("FilterNull dropped nothing: %d rows", p.RowsLoaded)
	}

	// Without the cleaner, nulls arrive at the sink.
	g2 := etl.NewBuilder("dirty").
		Op("src", "S", etl.OpExtract, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	p2, err := e.Execute(g2, binding(g2, 3000, data.Defects{NullRate: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if p2.OutNullCells == 0 {
		t.Error("expected nulls at sink without cleaning")
	}
}

func TestDedupRemovesDuplicates(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("dedup").
		Op("src", "S", etl.OpExtract, s).
		Op("dd", "dedup", etl.OpDedup, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 2000, data.Defects{DupRate: 0.15}))
	if err != nil {
		t.Fatal(err)
	}
	if p.OutDupRows != 0 {
		t.Errorf("duplicates at sink after dedup: %d", p.OutDupRows)
	}
	if p.RowsLoaded != 2000 {
		t.Errorf("dedup should restore logical cardinality, got %d", p.RowsLoaded)
	}
}

func TestCrosscheckRemovesErrors(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("xcheck").
		Op("src", "S", etl.OpExtract, s).
		Op("cc", "crosscheck", etl.OpCrosscheck, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 2000, data.Defects{ErrorRate: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if p.OutErrRows != 0 {
		t.Errorf("erroneous rows at sink after crosscheck: %d", p.OutErrRows)
	}
	if p.RowsLoaded >= 2000 {
		t.Error("crosscheck should have dropped defective rows")
	}
}

func TestPartitionMergePreservesRows(t *testing.T) {
	s := purchasesSchema()
	g := etl.New("par")
	g.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	g.MustAddNode(etl.NewNode("part", "partition", etl.OpPartition, s))
	g.MustAddNode(etl.NewNode("d1", "derive1", etl.OpDerive, s))
	g.MustAddNode(etl.NewNode("d2", "derive2", etl.OpDerive, s))
	g.MustAddNode(etl.NewNode("mrg", "merge", etl.OpMerge, s))
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("src", "part")
	g.MustAddEdge("part", "d1")
	g.MustAddEdge("part", "d2")
	g.MustAddEdge("d1", "mrg")
	g.MustAddEdge("d2", "mrg")
	g.MustAddEdge("mrg", "ld")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 1000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded != 1000 {
		t.Errorf("partition+merge lost rows: %d", p.RowsLoaded)
	}
	// Round-robin split: each branch sees about half.
	if p.RowsIn[at(p, "d1")] != 500 || p.RowsIn[at(p, "d2")] != 500 {
		t.Errorf("branch rows = %d / %d", p.RowsIn[at(p, "d1")], p.RowsIn[at(p, "d2")])
	}
}

func TestParallelismSpeedsUpDerive(t *testing.T) {
	mk := func(par int) float64 {
		g := simpleFlow(t)
		g.Node("drv").Cost.PerTuple = 0.05 // make derive dominant
		g.Node("drv").Parallelism = par
		e := NewEngine(DefaultConfig())
		p, err := e.Execute(g, binding(g, 4000, data.Defects{}))
		if err != nil {
			t.Fatal(err)
		}
		return p.FirstPassMs
	}
	t1, t4 := mk(1), mk(4)
	if t4 >= t1 {
		t.Errorf("parallelism 4 (%f) not faster than 1 (%f)", t4, t1)
	}
	if t4 > t1/2 {
		t.Errorf("parallelism 4 gave < 2x speedup on a dominant op: %f vs %f", t4, t1)
	}
}

func TestJoinFlow(t *testing.T) {
	left := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "qty", Type: etl.TypeInt},
	)
	right := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "label", Type: etl.TypeString},
	)
	joined := left.Union(right)
	g := etl.New("join")
	g.MustAddNode(etl.NewNode("l", "L", etl.OpExtract, left))
	g.MustAddNode(etl.NewNode("r", "R", etl.OpExtract, right))
	g.MustAddNode(etl.NewNode("j", "join", etl.OpJoin, joined))
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("l", "j")
	g.MustAddEdge("r", "j")
	g.MustAddEdge("j", "ld")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	b := Binding{
		"l": {Name: "L", Schema: left, Rows: 1000, Seed: 5},
		"r": {Name: "R", Schema: right, Rows: 800, Seed: 6},
	}
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// Keys are ordinals 0..N-1 in both sources: inner join = min(1000, 800).
	if p.RowsLoaded != 800 {
		t.Errorf("join produced %d rows, want 800", p.RowsLoaded)
	}
}

func TestAggregateReducesCardinality(t *testing.T) {
	s := etl.NewSchema(
		etl.Attribute{Name: "grp", Type: etl.TypeString},
		etl.Attribute{Name: "v", Type: etl.TypeInt},
	)
	g := etl.NewBuilder("agg").
		Op("src", "S", etl.OpExtract, s).
		Op("agg", "aggregate", etl.OpAggregate, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	g.MutableNode("agg").SetParam("group_by", "grp")
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 5000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	// grp draws from a 20-word vocabulary.
	if p.RowsLoaded > 20 || p.RowsLoaded == 0 {
		t.Errorf("aggregate output = %d rows, want <= 20", p.RowsLoaded)
	}
}

func TestBlockingMemPeak(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("sortmem").
		Op("src", "S", etl.OpExtract, s).
		Op("srt", "sort", etl.OpSort, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 1234, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.MemRowsPeak != 1234 {
		t.Errorf("mem peak = %d, want 1234", p.MemRowsPeak)
	}
}

func TestCheckpointReducesRestartCost(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p1, err := e.Execute(g, binding(g, 2000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	// Insert a savepoint before the expensive derive.
	g2 := g.Clone()
	cp := etl.NewNode(g2.FreshID("cp"), "savepoint", etl.OpCheckpoint, g2.Node("flt").Out)
	if err := g2.InsertOnEdge("flt", "drv", cp); err != nil {
		t.Fatal(err)
	}
	p2, err := e.Execute(g2, binding(g2, 2000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if !p2.RestartFromCheckpoint[at(p2, "drv")] {
		t.Error("derive should restart from checkpoint")
	}
	if p2.RestartMs[at(p2, "drv")] >= p1.RestartMs[at(p1, "drv")] {
		t.Errorf("restart cost with checkpoint (%f) not below without (%f)",
			p2.RestartMs[at(p2, "drv")], p1.RestartMs[at(p1, "drv")])
	}
	if p1.RestartFromCheckpoint[at(p1, "drv")] {
		t.Error("no checkpoint in base flow")
	}
}

func TestRecoverySourceInert(t *testing.T) {
	s := purchasesSchema()
	g := etl.New("rec")
	g.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	g.MustAddNode(etl.NewNode("rcv", "from_savepoint", etl.OpRecovery, s))
	g.MustAddNode(etl.NewNode("mrg", "merge", etl.OpMerge, s))
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("src", "mrg")
	g.MustAddEdge("rcv", "mrg")
	g.MustAddEdge("mrg", "ld")
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 500, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded != 500 {
		t.Errorf("recovery source should add no rows during profiling, got %d", p.RowsLoaded)
	}
}

// at returns the node's position in the profile's Order, the index of its
// entries in the per-node slices.
func at(p *Profile, id etl.NodeID) int { return slices.Index(p.Order, id) }
