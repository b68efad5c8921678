package measures

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/sim"
	"poiesis/internal/trace"
)

func fixtureFlow(t testing.TB) *etl.Graph {
	t.Helper()
	s := etl.NewSchema(
		etl.Attribute{Name: "id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "amount", Type: etl.TypeFloat},
		etl.Attribute{Name: "note", Type: etl.TypeString, Nullable: true},
	)
	return etl.NewBuilder("fixture").
		Op("src", "S", etl.OpExtract, s).
		Op("flt", "filter", etl.OpFilter, s).
		Op("drv", "derive", etl.OpDerive, s.With(etl.Attribute{Name: "tax", Type: etl.TypeFloat})).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
}

func evaluate(t testing.TB, g *etl.Graph, d data.Defects) (*sim.Profile, *trace.Batch) {
	t.Helper()
	e := sim.NewEngine(sim.DefaultConfig())
	bind := sim.Binding{}
	for _, src := range g.Sources() {
		bind[src.ID] = data.SourceSpec{
			Name: src.Name, Schema: src.Out, Rows: 2000,
			Defects: d, UpdatesPerHour: 1, Seed: 7,
		}
	}
	p, b, err := e.Evaluate(g, bind)
	if err != nil {
		t.Fatal(err)
	}
	return p, b
}

func TestEstimateProducesAllCharacteristics(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{NullRate: 0.05, DupRate: 0.02, ErrorRate: 0.03})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	if r.Flow != "fixture" || r.Fingerprint == "" {
		t.Error("report identity incomplete")
	}
	for _, c := range AllCharacteristics() {
		cr, ok := r.Characteristic(c)
		if !ok {
			t.Fatalf("missing characteristic %s", c)
		}
		if cr.Score < 0 || cr.Score > 1 {
			t.Errorf("%s score %f out of [0,1]", c, cr.Score)
		}
		if len(cr.Measures) == 0 {
			t.Errorf("%s has no measures", c)
		}
	}
}

func TestFig1MeasuresPresent(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	// Fig. 1 lists: cycle time and latency/tuple (performance); request time
	// minus last update and 1/(1-age*freq) (data quality); longest path,
	// coupling and merge count (manageability).
	checks := []struct {
		c    Characteristic
		name string
	}{
		{Performance, MCycleTime},
		{Performance, MLatencyPerTup},
		{DataQuality, MFreshness},
		{DataQuality, MCurrency},
		{Manageability, MLongestPath},
		{Manageability, MCoupling},
		{Manageability, MMergeCount},
	}
	for _, ck := range checks {
		if _, ok := r.MeasureValue(ck.c, ck.name); !ok {
			t.Errorf("Fig.1 measure %s/%s missing", ck.c, ck.name)
		}
	}
}

func TestStaticMeasuresMatchGraph(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	if v, _ := r.MeasureValue(Manageability, MLongestPath); v != float64(g.LongestPath()) {
		t.Errorf("longest path %f != %d", v, g.LongestPath())
	}
	if v, _ := r.MeasureValue(Manageability, MCoupling); v != g.Coupling() {
		t.Errorf("coupling %f != %f", v, g.Coupling())
	}
	if v, _ := r.MeasureValue(Manageability, MSize); v != float64(g.Len()) {
		t.Errorf("size %f != %d", v, g.Len())
	}
}

func TestDataQualityRespondsToDefects(t *testing.T) {
	g := fixtureFlow(t)
	pClean, bClean := evaluate(t, g, data.Defects{})
	pDirty, bDirty := evaluate(t, g, data.Defects{NullRate: 0.2, DupRate: 0.1, ErrorRate: 0.1})
	est := NewEstimator(Config{})
	rClean := est.Estimate(g, pClean, bClean)
	rDirty := est.Estimate(g, pDirty, bDirty)
	cClean, _ := rClean.MeasureValue(DataQuality, MCompleteness)
	cDirty, _ := rDirty.MeasureValue(DataQuality, MCompleteness)
	if cDirty >= cClean {
		t.Errorf("completeness should drop with nulls: %f vs %f", cDirty, cClean)
	}
	if rDirty.Score(DataQuality) >= rClean.Score(DataQuality) {
		t.Error("data quality score should drop with defects")
	}
	if cClean != 1 {
		t.Errorf("clean completeness = %f, want 1", cClean)
	}
}

func TestSelfNormalisationScoresHalf(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	// With zero references, ratio-based characteristic scores pin at 0.5.
	if got := r.Score(Performance); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("self-normalised performance = %f", got)
	}
	if got := r.Score(Manageability); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("self-normalised manageability = %f", got)
	}
	if got := r.Score(Cost); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("self-normalised cost = %f", got)
	}
}

func TestBaselineConfigAnchorsScores(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	cfg := BaselineConfig(g, p, b)
	if cfg.DeadlineMs <= 0 || cfg.RefCycleMs <= 0 || cfg.RefWorkMs <= 0 || cfg.RefMgmtUnits <= 0 {
		t.Fatalf("baseline config incomplete: %+v", cfg)
	}
	est := NewEstimator(cfg)
	r := est.Estimate(g, p, b)
	if math.Abs(r.Score(Performance)-0.5) > 1e-9 {
		t.Errorf("baseline flow should score 0.5 on performance, got %f", r.Score(Performance))
	}

	// A faster variant must score above the baseline.
	g2 := g.Clone()
	g2.MutableNode("drv").Parallelism = 8
	p2, b2 := evaluate(t, g2, data.Defects{})
	r2 := est.Estimate(g2, p2, b2)
	if r2.Score(Performance) <= r.Score(Performance) {
		t.Errorf("8x parallel derive should raise performance score: %f vs %f",
			r2.Score(Performance), r.Score(Performance))
	}
}

func TestCurrencyFormulaGuard(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	// Make age*frequency exceed 1: updates every minute, hourly load.
	b.SourceUpdatesPerHour = 120
	r := NewEstimator(Config{}).Estimate(g, p, b)
	cur, _ := r.MeasureValue(DataQuality, MCurrency)
	if cur != 0 {
		t.Errorf("currency factor must be guarded at 0 when stale, got %f", cur)
	}
	// Fresh case: the 1/(1-x) formula is positive and >= 1.
	b.SourceUpdatesPerHour = 0.5
	r2 := NewEstimator(Config{}).Estimate(g, p, b)
	cur2, _ := r2.MeasureValue(DataQuality, MCurrency)
	if cur2 < 1 {
		t.Errorf("currency factor = %f, want >= 1", cur2)
	}
}

func TestReliabilityMeasures(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	sr, _ := r.MeasureValue(Reliability, MSuccessRate)
	if sr != b.SuccessRate() {
		t.Errorf("success rate %f != batch %f", sr, b.SuccessRate())
	}
	cov, _ := r.MeasureValue(Reliability, MCPCoverage)
	if cov != 0 {
		t.Errorf("flow without checkpoints has coverage %f", cov)
	}

	// Add a checkpoint: coverage must become positive.
	g2 := g.Clone()
	cp := etl.NewNode(g2.FreshID("cp"), "savepoint", etl.OpCheckpoint, g2.Node("flt").Out)
	if err := g2.InsertOnEdge("flt", "drv", cp); err != nil {
		t.Fatal(err)
	}
	p2, b2 := evaluate(t, g2, data.Defects{})
	r2 := NewEstimator(Config{}).Estimate(g2, p2, b2)
	cov2, _ := r2.MeasureValue(Reliability, MCPCoverage)
	if cov2 <= 0 {
		t.Errorf("coverage with checkpoint = %f", cov2)
	}
}

func TestVectorProjection(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	dims := []Characteristic{Performance, DataQuality, Reliability}
	v := r.Vector(dims)
	if len(v) != 3 {
		t.Fatalf("vector len %d", len(v))
	}
	for i, d := range dims {
		if v[i] != r.Score(d) {
			t.Errorf("vector[%d] != score(%s)", i, d)
		}
	}
}

func TestReportString(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	s := NewEstimator(Config{}).Estimate(g, p, b).String()
	for _, want := range []string{"performance", "data_quality", MCycleTime, "first_pass_time"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q", want)
		}
	}
}

func TestCustomMeasure(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	est := NewEstimator(Config{}).
		WithCustomMeasure(CustomMeasure{
			Characteristic: Manageability,
			Name:           "source_count",
			Unit:           "ops",
			Compute: func(g *etl.Graph, _ *sim.Profile, _ *trace.Batch) float64 {
				return float64(len(g.Sources()))
			},
		}).
		WithCustomMeasure(CustomMeasure{
			Characteristic: "security", // new characteristic created on demand
			Name:           "encrypted_ratio",
			Unit:           "ratio",
			HigherIsBetter: true,
			Compute: func(g *etl.Graph, _ *sim.Profile, _ *trace.Batch) float64 {
				n := 0
				for _, node := range g.Nodes() {
					if node.Kind == etl.OpEncrypt {
						n++
					}
				}
				return float64(n) / float64(g.Len())
			},
		})
	r := est.Estimate(g, p, b)
	if v, ok := r.MeasureValue(Manageability, "source_count"); !ok || v != 1 {
		t.Errorf("custom measure = %f, %v", v, ok)
	}
	if _, ok := r.Characteristic("security"); !ok {
		t.Error("on-demand characteristic missing")
	}
	// Custom measures participate in relative change like builtins.
	g2 := g.Clone()
	enc := etl.NewNode(g2.FreshID("enc"), "encrypt", etl.OpEncrypt, g2.Node("src").Out)
	if err := g2.InsertOnEdge("src", "flt", enc); err != nil {
		t.Fatal(err)
	}
	p2, b2 := evaluate(t, g2, data.Defects{})
	r2 := est.Estimate(g2, p2, b2)
	rel := Relative(r2, r)
	found := false
	for _, cr := range rel {
		if cr.Characteristic != "security" {
			continue
		}
		for _, m := range cr.Measures {
			if m.Name == "encrypted_ratio" && m.ImprovementPct > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("custom measure missing from relative change")
	}
}

func TestReportJSONSerialisable(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{NullRate: 0.05})
	r := NewEstimator(Config{}).Estimate(g, p, b)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Flow != r.Flow || len(back.Chars) != len(r.Chars) {
		t.Error("JSON round trip lost structure")
	}
	v1, _ := r.MeasureValue(Performance, MCycleTime)
	v2, _ := back.MeasureValue(Performance, MCycleTime)
	if v1 != v2 {
		t.Error("JSON round trip changed values")
	}
	// Drill-down details survive.
	cr, _ := back.Characteristic(Performance)
	m, _ := cr.Measure(MCycleTime)
	if len(m.Detail) == 0 {
		t.Error("details lost in JSON")
	}
}

func TestRelativeChange(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{NullRate: 0.1})
	cfg := BaselineConfig(g, p, b)
	est := NewEstimator(cfg)
	baseline := est.Estimate(g, p, b)

	// Clean the flow: add a null filter near the source.
	g2 := g.Clone()
	fnv := etl.NewNode(g2.FreshID("fnv"), "filter_nulls", etl.OpFilterNull, g2.Node("src").Out.WithoutNullability())
	if err := g2.InsertOnEdge("src", "flt", fnv); err != nil {
		t.Fatal(err)
	}
	p2, b2 := evaluate(t, g2, data.Defects{NullRate: 0.1})
	alt := est.Estimate(g2, p2, b2)

	rel := Relative(alt, baseline)
	if len(rel) != len(AllCharacteristics()) {
		t.Fatalf("relative changes for %d characteristics", len(rel))
	}
	var dq *CharRelChange
	for i := range rel {
		if rel[i].Characteristic == DataQuality {
			dq = &rel[i]
		}
	}
	if dq == nil {
		t.Fatal("no data quality relative change")
	}
	if dq.ScoreDeltaPct <= 0 {
		t.Errorf("cleaning should improve data quality score: %+f%%", dq.ScoreDeltaPct)
	}
	found := false
	for _, m := range dq.Measures {
		if m.Name == MCompleteness {
			found = true
			if m.ImprovementPct <= 0 {
				t.Errorf("completeness improvement = %f%%", m.ImprovementPct)
			}
			if m.ImprovementPct != m.DeltaPct {
				t.Error("higher-is-better measure should keep sign")
			}
		}
	}
	if !found {
		t.Error("completeness missing from relative changes")
	}
}

func TestRelativeSignAdjustment(t *testing.T) {
	base := &Report{Flow: "b", Chars: []CharacteristicReport{{
		Characteristic: Performance,
		Score:          0.5,
		Measures: []Measure{
			{Name: MCycleTime, Value: 100},                       // lower is better
			{Name: MThroughput, Value: 50, HigherIsBetter: true}, // higher is better
		},
	}}}
	alt := &Report{Flow: "a", Chars: []CharacteristicReport{{
		Characteristic: Performance,
		Score:          0.6,
		Measures: []Measure{
			{Name: MCycleTime, Value: 80},
			{Name: MThroughput, Value: 60, HigherIsBetter: true},
		},
	}}}
	rel := Relative(alt, base)
	if len(rel) != 1 {
		t.Fatal("one characteristic expected")
	}
	for _, m := range rel[0].Measures {
		switch m.Name {
		case MCycleTime:
			if math.Abs(m.DeltaPct-(-20)) > 1e-9 || math.Abs(m.ImprovementPct-20) > 1e-9 {
				t.Errorf("cycle time rel = %+v", m)
			}
		case MThroughput:
			if math.Abs(m.DeltaPct-20) > 1e-9 || math.Abs(m.ImprovementPct-20) > 1e-9 {
				t.Errorf("throughput rel = %+v", m)
			}
		}
	}
}

func TestPctChangeEdgeCases(t *testing.T) {
	if pctChange(0, 0) != 0 {
		t.Error("0->0 should be 0%")
	}
	if pctChange(0, 5) != 100 {
		t.Error("0->x should cap at 100%")
	}
	if pctChange(10, 5) != -50 {
		t.Error("10->5 should be -50%")
	}
}

func TestRatioScoreShape(t *testing.T) {
	if got := ratioScore(100, 100); got != 0.5 {
		t.Errorf("x==ref should give 0.5, got %f", got)
	}
	if ratioScore(10, 100) <= ratioScore(100, 100) {
		t.Error("smaller magnitude must score higher")
	}
	if ratioScore(1000, 100) >= ratioScore(100, 100) {
		t.Error("larger magnitude must score lower")
	}
	if got := ratioScore(50, 0); got != 0.5 {
		t.Errorf("zero ref should self-normalise to 0.5, got %f", got)
	}
}

func TestResourceFactorParam(t *testing.T) {
	g := fixtureFlow(t)
	p, b := evaluate(t, g, data.Defects{})
	est := NewEstimator(Config{RefWorkMs: 100})
	r1 := est.Estimate(g, p, b)
	g.Node("src").SetParam("resources.cost_factor", "2.5")
	r2 := est.Estimate(g, p, b)
	m1, _ := r1.MeasureValue(Cost, MMonetaryCost)
	m2, _ := r2.MeasureValue(Cost, MMonetaryCost)
	if math.Abs(m2-2.5*m1) > 1e-9 {
		t.Errorf("cost factor not applied: %f vs %f", m2, m1)
	}
	if r2.Score(Cost) >= r1.Score(Cost) {
		t.Error("pricier resources must lower the cost score")
	}
}
