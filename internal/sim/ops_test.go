package sim

import (
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

func TestProjectNarrowsRows(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("proj").
		Op("src", "S", etl.OpExtract, s).
		Op("prj", "project", etl.OpProject, s.Project("item_id", "price")).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 500, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	// Sink schema = project output: 2 attributes per row.
	if p.OutCells != p.OutRows*2 {
		t.Errorf("cells %d for %d rows", p.OutCells, p.OutRows)
	}
	if p.RowsLoaded != 500 {
		t.Errorf("project dropped rows: %d", p.RowsLoaded)
	}
}

func TestSurrogateAssignsDenseKeys(t *testing.T) {
	s := purchasesSchema()
	out := s.With(etl.Attribute{Name: "sk", Type: etl.TypeInt, Key: true})
	g := etl.NewBuilder("sk").
		Op("src", "S", etl.OpExtract, s).
		Op("sur", "surrogate", etl.OpSurrogate, out).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 300, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded != 300 {
		t.Errorf("rows = %d", p.RowsLoaded)
	}
}

func TestSplitHashRoutesDisjointly(t *testing.T) {
	s := purchasesSchema()
	g := etl.New("hashsplit")
	g.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	spl := etl.NewNode("spl", "split", etl.OpSplit, s)
	spl.SetParam("route", "hash")
	g.MustAddNode(spl)
	g.MustAddNode(etl.NewNode("ld1", "A", etl.OpLoad, etl.Schema{}))
	g.MustAddNode(etl.NewNode("ld2", "B", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("src", "spl")
	g.MustAddEdge("spl", "ld1")
	g.MustAddEdge("spl", "ld2")
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 1000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	// Hash routing partitions: totals add up, neither branch empty.
	if p.RowsIn[at(p, "ld1")]+p.RowsIn[at(p, "ld2")] != 1000 {
		t.Errorf("hash split lost rows: %d + %d", p.RowsIn[at(p, "ld1")], p.RowsIn[at(p, "ld2")])
	}
	if p.RowsIn[at(p, "ld1")] == 0 || p.RowsIn[at(p, "ld2")] == 0 {
		t.Error("hash split sent everything one way")
	}

	// Copy routing (default) duplicates the stream instead.
	g2 := g.Clone()
	g2.MutableNode("spl").SetParam("route", "copy")
	p2, err := e.Execute(g2, binding(g2, 1000, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p2.RowsIn[at(p2, "ld1")] != 1000 || p2.RowsIn[at(p2, "ld2")] != 1000 {
		t.Errorf("copy split rows: %d / %d", p2.RowsIn[at(p2, "ld1")], p2.RowsIn[at(p2, "ld2")])
	}
}

func TestLookupKeepsUnmatchedRows(t *testing.T) {
	left := etl.NewSchema(
		etl.Attribute{Name: "k", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "v", Type: etl.TypeInt},
	)
	right := etl.NewSchema(
		etl.Attribute{Name: "k", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "extra", Type: etl.TypeString},
	)
	g := etl.New("lkp")
	g.MustAddNode(etl.NewNode("l", "L", etl.OpExtract, left))
	g.MustAddNode(etl.NewNode("r", "R", etl.OpExtract, right))
	g.MustAddNode(etl.NewNode("lkp", "lookup", etl.OpLookup, left.Union(right)))
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("l", "lkp")
	g.MustAddEdge("r", "lkp")
	g.MustAddEdge("lkp", "ld")
	b := Binding{
		"l": {Name: "L", Schema: left, Rows: 1000, Seed: 1},
		"r": {Name: "R", Schema: right, Rows: 400, Seed: 2},
	}
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// Lookup (outer) keeps all left rows; join (inner) would keep 400.
	if p.RowsLoaded != 1000 {
		t.Errorf("lookup dropped unmatched rows: %d", p.RowsLoaded)
	}
	// Unmatched enrichment is NULL: null cells appear at the sink.
	if p.OutNullCells == 0 {
		t.Error("unmatched lookups should produce NULL enrichment")
	}
}

func TestJoinWithoutSharedKeysDegenerates(t *testing.T) {
	left := etl.NewSchema(etl.Attribute{Name: "a", Type: etl.TypeInt, Key: true})
	right := etl.NewSchema(etl.Attribute{Name: "b", Type: etl.TypeInt, Key: true})
	g := etl.New("nokey")
	g.MustAddNode(etl.NewNode("l", "L", etl.OpExtract, left))
	g.MustAddNode(etl.NewNode("r", "R", etl.OpExtract, right))
	g.MustAddNode(etl.NewNode("j", "join", etl.OpJoin, left))
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("l", "j")
	g.MustAddEdge("r", "j")
	g.MustAddEdge("j", "ld")
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, Binding{
		"l": {Name: "L", Schema: left, Rows: 100, Seed: 1},
		"r": {Name: "R", Schema: right, Rows: 100, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No shared attributes: degenerate to the left input.
	if p.RowsLoaded != 100 {
		t.Errorf("degenerate join rows = %d", p.RowsLoaded)
	}
}

func TestEncryptAndNoopPassThrough(t *testing.T) {
	s := purchasesSchema()
	g := etl.NewBuilder("enc").
		Op("src", "S", etl.OpExtract, s).
		Op("enc", "encrypt", etl.OpEncrypt, s).
		Op("nop", "noop", etl.OpNoop, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 250, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded != 250 {
		t.Errorf("pass-through ops changed cardinality: %d", p.RowsLoaded)
	}
}

func TestConfigClamping(t *testing.T) {
	e := NewEngine(Config{DefaultRows: -1, Runs: -5, RetryBudget: 0, PipelineOverlap: 7})
	if e.cfg.DefaultRows <= 0 || e.cfg.Runs <= 0 || e.cfg.RetryBudget <= 0 {
		t.Errorf("defaults not applied: %+v", e.cfg)
	}
	if e.cfg.PipelineOverlap > 1 {
		t.Errorf("overlap not clamped: %f", e.cfg.PipelineOverlap)
	}
	e2 := NewEngine(Config{PipelineOverlap: -3})
	if e2.cfg.PipelineOverlap < 0 {
		t.Errorf("negative overlap not clamped: %f", e2.cfg.PipelineOverlap)
	}
}

func TestPipelineOverlapShortensMakespan(t *testing.T) {
	g := simpleFlow(t)
	mk := func(overlap float64) float64 {
		cfg := DefaultConfig()
		cfg.PipelineOverlap = overlap
		e := NewEngine(cfg)
		p, err := e.Execute(g, binding(g, 3000, data.Defects{}))
		if err != nil {
			t.Fatal(err)
		}
		return p.FirstPassMs
	}
	staged, pipelined := mk(0), mk(0.9)
	if pipelined >= staged {
		t.Errorf("pipelining did not shorten makespan: %f vs %f", pipelined, staged)
	}
}

func TestUnboundExtractGetsDefaultSpec(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, nil) // no binding at all
	if err != nil {
		t.Fatal(err)
	}
	// The default spec injects duplicates, so physical rows slightly exceed
	// the logical DefaultRows.
	want := DefaultConfig().DefaultRows
	if p.RowsIn[at(p, "src")] < want || p.RowsIn[at(p, "src")] > want+want/10 {
		t.Errorf("default rows = %d, want ~%d", p.RowsIn[at(p, "src")], want)
	}
	if f := e.SourceUpdatesPerHour(g, nil); f != 1 {
		t.Errorf("default update frequency = %f", f)
	}
}
