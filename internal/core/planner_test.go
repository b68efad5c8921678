package core

import (
	"strings"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
	"poiesis/internal/tpcds"
	"poiesis/internal/trace"
)

func fastSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = 400
	cfg.Runs = 24
	return cfg
}

func smallOptions() Options {
	return Options{
		Policy: policy.Greedy{TopK: 2},
		Depth:  2,
		Sim:    fastSim(),
	}
}

func plan(t testing.TB, opts Options) *Result {
	t.Helper()
	g := tpcds.PurchasesFlow()
	p := NewPlanner(nil, opts)
	res, err := p.Plan(g, tpcds.Binding(g, 800, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPlanProducesAlternatives(t *testing.T) {
	res := plan(t, smallOptions())
	if res.Initial.Report == nil {
		t.Fatal("initial flow not evaluated")
	}
	if len(res.Alternatives) == 0 {
		t.Fatal("no alternatives generated")
	}
	if len(res.SkylineIdx) == 0 {
		t.Fatal("empty skyline")
	}
	if len(res.SkylineIdx) > len(res.Alternatives) {
		t.Error("skyline bigger than space")
	}
	for _, a := range res.Alternatives {
		if a.Report == nil {
			t.Error("unevaluated alternative in result")
		}
		if len(a.Applications) == 0 || len(a.Applications) > 2 {
			t.Errorf("application history length %d with depth 2", len(a.Applications))
		}
		if err := a.Graph.Validate(); err != nil {
			t.Errorf("alternative %s invalid: %v", a.Label(), err)
		}
	}
	if res.Stats.Evaluated != len(res.Alternatives)+res.Stats.ConstraintRejected {
		t.Errorf("stats inconsistent: %+v vs %d alternatives",
			res.Stats, len(res.Alternatives))
	}
}

func TestPlanDeterministic(t *testing.T) {
	a := plan(t, smallOptions())
	b := plan(t, smallOptions())
	if len(a.Alternatives) != len(b.Alternatives) {
		t.Fatalf("space sizes differ: %d vs %d", len(a.Alternatives), len(b.Alternatives))
	}
	for i := range a.Alternatives {
		if a.Alternatives[i].Label() != b.Alternatives[i].Label() {
			t.Fatal("alternative order not deterministic")
		}
		ra, rb := a.Alternatives[i].Report, b.Alternatives[i].Report
		for _, c := range measures.AllCharacteristics() {
			if ra.Score(c) != rb.Score(c) {
				t.Fatalf("scores differ for %s on %s", a.Alternatives[i].Label(), c)
			}
		}
	}
	if len(a.SkylineIdx) != len(b.SkylineIdx) {
		t.Fatal("skylines differ")
	}
}

func TestPlanSkylineIsParetoFrontier(t *testing.T) {
	res := plan(t, smallOptions())
	vecs := make([][]float64, len(res.Alternatives))
	for i, a := range res.Alternatives {
		vecs[i] = a.Report.Vector(res.Dims)
	}
	in := map[int]bool{}
	for _, i := range res.SkylineIdx {
		in[i] = true
	}
	// "for one design ETL1, if there exists at least one alternative design
	// ETL2 offering the same or better performance and data quality, and at
	// the same time better reliability, then ETL1 will not be presented".
	for _, i := range res.SkylineIdx {
		for j := range vecs {
			if i != j && skyline.Dominates(vecs[j], vecs[i]) {
				t.Errorf("skyline member %d dominated by %d", i, j)
			}
		}
	}
	for i := range vecs {
		if in[i] {
			continue
		}
		dominated := false
		for _, j := range res.SkylineIdx {
			if skyline.Dominates(vecs[j], vecs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-skyline member %d not dominated", i)
		}
	}
}

func TestPlanDepthGrowsSpace(t *testing.T) {
	o1 := smallOptions()
	o1.Depth = 1
	o2 := smallOptions()
	o2.Depth = 2
	r1, r2 := plan(t, o1), plan(t, o2)
	if len(r2.Alternatives) <= len(r1.Alternatives) {
		t.Errorf("depth 2 (%d) not larger than depth 1 (%d)",
			len(r2.Alternatives), len(r1.Alternatives))
	}
	for _, a := range r1.Alternatives {
		if len(a.Applications) != 1 {
			t.Error("depth 1 should apply exactly one pattern")
		}
	}
}

func TestPlanMaxAlternativesCap(t *testing.T) {
	o := smallOptions()
	o.MaxAlternatives = 3
	o.Policy = policy.Exhaustive{}
	res := plan(t, o)
	if len(res.Alternatives) > 3 {
		t.Errorf("cap ignored: %d alternatives", len(res.Alternatives))
	}
	if !res.Stats.Capped {
		t.Error("capped flag not set")
	}
}

func TestPlanDedup(t *testing.T) {
	o := smallOptions()
	o.Policy = policy.Exhaustive{}
	o.Depth = 2
	res := plan(t, o)
	if res.Stats.Deduped == 0 {
		t.Error("depth-2 exhaustive space should contain duplicate designs (A@e1+B@e2 == B@e2+A@e1)")
	}
	// Fingerprints of surviving alternatives are unique.
	seen := map[string]bool{}
	for _, a := range res.Alternatives {
		fp := a.Report.Fingerprint
		if seen[fp] {
			t.Errorf("duplicate design in result: %s", a.Label())
		}
		seen[fp] = true
	}

	o.DisableDedup = true
	res2 := plan(t, o)
	if res2.Stats.Deduped != 0 {
		t.Error("dedup disabled but still counted")
	}
	if len(res2.Alternatives) <= len(res.Alternatives) {
		t.Error("disabling dedup should enlarge the raw space")
	}
}

func TestPlanPaletteSubset(t *testing.T) {
	o := smallOptions()
	o.Palette = []string{fcp.NameAddCheckpoint}
	res := plan(t, o)
	for _, a := range res.Alternatives {
		for _, app := range a.Applications {
			if app.Pattern != fcp.NameAddCheckpoint {
				t.Errorf("foreign pattern %s with restricted palette", app.Pattern)
			}
		}
	}
	p := NewPlanner(nil, Options{Palette: []string{"nope"}, Sim: fastSim()})
	if _, err := p.Plan(tpcds.PurchasesFlow(), nil); err == nil {
		t.Error("unknown palette name should fail")
	}
}

func TestPlanConstraints(t *testing.T) {
	o := smallOptions()
	// Demand data quality score no worse than the initial flow's; the
	// crosscheck/cleaning patterns pass, pure perf rewrites that leave
	// defects untouched still pass, but nothing should violate score>=0.
	o.Constraints = []policy.Constraint{
		policy.MinScore(measures.DataQuality, 0.99),
	}
	res := plan(t, o)
	if res.Stats.ConstraintRejected == 0 {
		t.Error("a 0.99 data-quality bar should reject some designs")
	}
	for _, a := range res.Alternatives {
		if a.Report.Score(measures.DataQuality) < 0.99 {
			t.Error("constraint-violating design survived")
		}
	}
}

func TestPlanInvalidFlow(t *testing.T) {
	g := etl.New("broken")
	g.MustAddNode(etl.NewNode("only", "x", etl.OpFilter, etl.Schema{}))
	p := NewPlanner(nil, smallOptions())
	if _, err := p.Plan(g, nil); err == nil {
		t.Error("invalid flow should fail")
	}
}

func TestAlternativeLabels(t *testing.T) {
	res := plan(t, smallOptions())
	if res.Initial.Label() != "initial" {
		t.Errorf("initial label = %q", res.Initial.Label())
	}
	for _, a := range res.Alternatives {
		if a.Label() == "" || a.Label() == "initial" {
			t.Errorf("bad label %q", a.Label())
		}
		if len(a.Applications) == 2 && !strings.Contains(a.Label(), " + ") {
			t.Errorf("two-application label = %q", a.Label())
		}
	}
}

func TestBestByGoals(t *testing.T) {
	res := plan(t, smallOptions())
	perfGoals := policy.NewGoals(map[measures.Characteristic]float64{
		measures.Performance: 1,
	})
	best := res.Best(perfGoals)
	if best == nil || best.Report == nil {
		t.Fatal("no best alternative")
	}
	// Best must be at least as good as the initial design on utility.
	if perfGoals.Utility(best.Report) < perfGoals.Utility(res.Initial.Report) {
		t.Error("best has lower utility than baseline")
	}
	// And no skyline member may beat it.
	for _, a := range res.Skyline() {
		if perfGoals.Utility(a.Report) > perfGoals.Utility(best.Report) {
			t.Error("Best missed a better skyline member")
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	o := smallOptions()
	o.Workers = 1
	seq := plan(t, o)
	o.Workers = 8
	par := plan(t, o)
	if len(seq.Alternatives) != len(par.Alternatives) {
		t.Fatal("worker count changed the space")
	}
	for i := range seq.Alternatives {
		a, b := seq.Alternatives[i], par.Alternatives[i]
		if a.Label() != b.Label() {
			t.Fatal("worker count changed ordering")
		}
		if a.Report.Score(measures.Performance) != b.Report.Score(measures.Performance) {
			t.Fatal("worker count changed scores")
		}
	}
}

func TestCountApplicationPoints(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats, err := fcp.DefaultRegistry().Palette()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, pat := range pats {
		counts[pat.Name()] = len(fcp.ApplicationPoints(pat, g))
	}
	if counts[fcp.NameAddCheckpoint] == 0 {
		t.Error("no checkpoint points on the purchases flow")
	}
	if counts[fcp.NameParallelizeTask] != 1 {
		t.Errorf("parallelize points = %d, want 1 (the heavy derive)", counts[fcp.NameParallelizeTask])
	}
	if _, err := fcp.DefaultRegistry().Palette("bogus"); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestPlanWithCustomMeasures(t *testing.T) {
	o := smallOptions()
	o.CustomMeasures = []measures.CustomMeasure{{
		Characteristic: measures.Manageability,
		Name:           "generated_fraction",
		Unit:           "ratio",
		Compute: func(g *etl.Graph, _ *sim.Profile, _ *trace.Batch) float64 {
			if g.Len() == 0 {
				return 0
			}
			return float64(g.GeneratedCount()) / float64(g.Len())
		},
	}}
	res := plan(t, o)
	if _, ok := res.Initial.Report.MeasureValue(measures.Manageability, "generated_fraction"); !ok {
		t.Error("custom measure missing from baseline report")
	}
	for _, a := range res.Alternatives {
		v, ok := a.Report.MeasureValue(measures.Manageability, "generated_fraction")
		if !ok {
			t.Fatal("custom measure missing from alternative report")
		}
		// Graph-wide patterns only set parameters; structural patterns must
		// register generated nodes in the custom metric.
		structural := false
		for _, app := range a.Applications {
			if app.Point.Kind != fcp.GraphPoint {
				structural = true
			}
		}
		if structural && v <= 0 {
			t.Errorf("alternative %s should have generated nodes, fraction %f", a.Label(), v)
		}
	}
}

func TestSessionIterativeLoop(t *testing.T) {
	g := tpcds.PurchasesFlow()
	p := NewPlanner(nil, smallOptions())
	s := NewSession(p, g, tpcds.Binding(g, 800, 1))
	if s.Current() != g {
		t.Fatal("session current != initial")
	}
	if _, err := s.Select(0); err == nil {
		t.Error("Select before Explore should fail")
	}
	res, err := s.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if s.LastResult() != res {
		t.Error("LastResult mismatch")
	}
	if _, err := s.Select(len(res.SkylineIdx)); err == nil {
		t.Error("out-of-range selection should fail")
	}
	alt, err := s.Select(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Current() != alt.Graph {
		t.Error("selection did not become current design")
	}
	hist := s.History()
	if len(hist) != 1 || hist[0].Iteration != 1 || hist[0].Label == "" {
		t.Errorf("history = %+v", hist)
	}
	// Second iteration starts from the selected design.
	res2, err := s.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Initial.Graph != alt.Graph {
		t.Error("second iteration did not start from selection")
	}
	// Deeper designs now may carry prior generated nodes.
	if alt.Graph.GeneratedCount() == 0 {
		t.Error("selected design should contain generated nodes")
	}
}
