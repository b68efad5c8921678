package poiesis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"poiesis"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
)

func TestWorkloadBuilders(t *testing.T) {
	flows := map[string]*poiesis.Graph{
		"purchases": poiesis.TPCDSPurchases(),
		"sales":     poiesis.TPCDSSales(),
		"inventory": poiesis.TPCDSInventory(),
		"revenue":   poiesis.TPCHRevenue(),
		"pricing":   poiesis.TPCHPricingSummary(),
	}
	for name, g := range flows {
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestXLMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flow.xlm")
	g := poiesis.TPCDSPurchases()
	if err := poiesis.SaveXLM(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := poiesis.LoadXLM(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Error("file round trip changed the flow")
	}
	if _, err := poiesis.LoadXLM(filepath.Join(dir, "missing.xlm")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestPDIFileLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flow.ktr")
	b, err := poiesis.EncodePDI(poiesis.TPCHPricingSummary())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := poiesis.LoadPDI(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Error("empty flow loaded")
	}
	if _, err := poiesis.LoadPDI(filepath.Join(dir, "missing.ktr")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestJSONFacade(t *testing.T) {
	g := poiesis.TPCDSPurchases()
	b, err := poiesis.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := poiesis.DecodeJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Error("JSON round trip changed the flow")
	}
	if _, err := poiesis.DecodeJSON([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestDecodeXLMAndPDIFacade(t *testing.T) {
	g := poiesis.TPCDSPurchases()
	xb, err := poiesis.EncodeXLM(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poiesis.DecodeXLM(xb); err != nil {
		t.Error(err)
	}
	pb, err := poiesis.EncodePDI(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poiesis.DecodePDI(pb); err != nil {
		t.Error(err)
	}
}

func TestExportDOTFacade(t *testing.T) {
	dot := poiesis.ExportDOT(poiesis.TPCDSPurchases())
	if !strings.Contains(dot, "digraph") {
		t.Error("not DOT output")
	}
}

func TestAutoBinding(t *testing.T) {
	g := poiesis.TPCHRevenue()
	b := poiesis.AutoBinding(g, 100, 1)
	if len(b) != len(g.Sources()) {
		t.Errorf("binding covers %d of %d sources", len(b), len(g.Sources()))
	}
	for id, spec := range b {
		if spec.Rows != 100 {
			t.Errorf("%s rows = %d", id, spec.Rows)
		}
	}
	// Zero scale falls back to a usable default.
	b2 := poiesis.AutoBinding(g, 0, 1)
	for _, spec := range b2 {
		if spec.Rows <= 0 {
			t.Error("default scale missing")
		}
	}
}

func TestSessionFacade(t *testing.T) {
	flow := poiesis.TPCDSPurchases()
	planner := poiesis.NewPlanner(nil, poiesis.Options{
		Policy: poiesis.GreedyPolicy{TopK: 1},
		Depth:  1,
		Sim:    benchSim(200),
	})
	s := poiesis.NewSession(planner, flow, poiesis.TPCDSBinding(flow, 200, 1))
	res, err := s.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkylineIdx) == 0 {
		t.Fatal("no skyline")
	}
	if _, err := s.Select(0); err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 1 {
		t.Error("history not recorded")
	}
}

func TestReplayFacade(t *testing.T) {
	flow := poiesis.TPCDSPurchases()
	planner := poiesis.NewPlanner(nil, poiesis.Options{
		Policy: poiesis.GreedyPolicy{TopK: 1},
		Depth:  1,
		Sim:    benchSim(200),
	})
	res, err := planner.Plan(flow, poiesis.TPCDSBinding(flow, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	alt := &res.Alternatives[0]
	g, err := poiesis.Replay(nil, flow, alt.Applications)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != alt.Graph.Fingerprint() {
		t.Error("facade replay mismatch")
	}
	if _, err := poiesis.ReplayVerified(nil, flow, alt); err != nil {
		t.Error(err)
	}
	exps := poiesis.ExplainSkyline(res)
	if len(exps) != len(res.SkylineIdx) {
		t.Error("explanations incomplete")
	}
	if len(poiesis.AnalyzePatternUsage(res)) == 0 {
		t.Error("no usage analysis")
	}
	if len(poiesis.FrontierSpread(res)) == 0 {
		t.Error("no spread")
	}
}

func TestDiffFlowsFacade(t *testing.T) {
	base := poiesis.TPCDSPurchases()
	next := base.Clone()
	pat := poiesis.NewPushDownSelection()
	_ = pat // push-down has no point on this flow (filter precedes derive)
	cp := etl.NewNode(next.FreshID("sp"), "savepoint", etl.OpCheckpoint, next.Node("flt_current").Out)
	if err := next.InsertOnEdge("flt_current", "split_req", cp); err != nil {
		t.Fatal(err)
	}
	d := poiesis.DiffFlows(base, next)
	if d.IsEmpty() || len(d.AddedNodes) != 1 {
		t.Errorf("diff = %v", d)
	}
}

func TestRelativeChangesFacade(t *testing.T) {
	flow := poiesis.TPCDSPurchases()
	planner := poiesis.NewPlanner(nil, poiesis.Options{
		Policy: poiesis.GreedyPolicy{TopK: 1},
		Depth:  1,
		Sim:    benchSim(200),
	})
	res, err := planner.Plan(flow, poiesis.TPCDSBinding(flow, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	rel := poiesis.RelativeChanges(res.Alternatives[0].Report, res.Initial.Report)
	if len(rel) == 0 {
		t.Error("no relative changes")
	}
	svg := poiesis.RenderScatterSVG(res, poiesis.ScatterOptions{Title: "t"})
	if !strings.Contains(svg, "<svg") {
		t.Error("no SVG")
	}
}

// A result over two skyline dimensions has no third one to size markers
// by, so every SVG marker takes the default radius.
func TestRenderScatterSVGTwoDims(t *testing.T) {
	flow := poiesis.TPCDSPurchases()
	planner := poiesis.NewPlanner(nil, poiesis.Options{
		Policy: poiesis.GreedyPolicy{TopK: 1},
		Depth:  1,
		Dims:   []poiesis.Characteristic{poiesis.Performance, poiesis.DataQuality},
		Sim:    benchSim(200),
	})
	res, err := planner.Plan(flow, poiesis.TPCDSBinding(flow, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	svg := poiesis.RenderScatterSVG(res, poiesis.ScatterOptions{Title: "t"})
	markers := strings.Count(svg, "<circle")
	if markers != len(res.Alternatives) || markers < 2 {
		t.Fatalf("%d markers for %d alternatives", markers, len(res.Alternatives))
	}
	if got := strings.Count(svg, `r="4.0"`); got != markers {
		t.Errorf("%d of %d markers have the default radius:\n%s", got, markers, svg)
	}
	if strings.Contains(svg, "size:") {
		t.Error("two-dimensional scatter labels a size dimension")
	}
}

func TestConstraintBuildersExported(t *testing.T) {
	cs := []poiesis.Constraint{
		poiesis.MaxMeasure(poiesis.Performance, "process_cycle_time", 1e9),
		poiesis.MinMeasure(poiesis.DataQuality, "completeness", 0),
		poiesis.MinScore(poiesis.Reliability, 0),
	}
	for _, c := range cs {
		if c.Name() == "" {
			t.Error("constraint without name")
		}
	}
}

func TestCustomPatternFacade(t *testing.T) {
	pat, err := poiesis.NewCustomPattern(poiesis.CustomPatternSpec{
		Name:     "NoopPattern",
		Kind:     fcp.EdgePoint,
		Improves: poiesis.Manageability,
		OpKind:   etl.OpNoop,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := poiesis.DefaultPatterns()
	if err := reg.Register(pat); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(poiesis.NewPushDownSelection()); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("NoopPattern"); !ok {
		t.Error("custom pattern not registered")
	}
}

func TestConfigFacade(t *testing.T) {
	doc, err := poiesis.ParseConfig([]byte(`{
		"palette": ["FilterNullValues"],
		"policy": "greedy", "topK": 1, "depth": 1,
		"sim": {"defaultRows": 200, "runs": 8}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := poiesis.PlannerFromConfig(doc)
	if err != nil {
		t.Fatal(err)
	}
	flow := poiesis.TPCDSPurchases()
	res, err := planner.Plan(flow, poiesis.TPCDSBinding(flow, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Alternatives {
		for _, app := range a.Applications {
			if app.Pattern != "FilterNullValues" {
				t.Errorf("pattern %s outside configured palette", app.Pattern)
			}
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"depth": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := poiesis.LoadConfig(path); err != nil {
		t.Error(err)
	}
	if _, err := poiesis.LoadConfig(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing config should fail")
	}
	if _, err := poiesis.ParseConfig([]byte("{")); err == nil {
		t.Error("bad config should fail")
	}
}

func TestBuilderFacade(t *testing.T) {
	s := poiesis.Schema{Attrs: []poiesis.Attribute{
		{Name: "id", Type: etl.TypeInt, Key: true},
	}}
	g, err := poiesis.NewBuilder("mini").
		Op("src", "S", etl.OpExtract, s).
		Op("ld", "DW", etl.OpLoad, poiesis.Schema{}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Error("builder facade broken")
	}
	if poiesis.NewFlow("x").Len() != 0 {
		t.Error("NewFlow broken")
	}
}
