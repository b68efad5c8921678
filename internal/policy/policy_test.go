package policy

import (
	"strings"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/tpcds"
)

func palette(t testing.TB, names ...string) []fcp.Pattern {
	t.Helper()
	pats, err := fcp.DefaultRegistry().Palette(names...)
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func TestExhaustiveProposesAllPoints(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats := palette(t)
	cands := Exhaustive{}.Propose(g, pats)
	// Must equal the sum of per-pattern application points.
	want := 0
	for _, p := range pats {
		want += len(fcp.ApplicationPoints(p, g))
	}
	if len(cands) != want {
		t.Errorf("exhaustive candidates = %d, want %d", len(cands), want)
	}
	// Capped variant reduces the fan-out.
	capped := Exhaustive{MaxPerPattern: 1}.Propose(g, pats)
	if len(capped) >= len(cands) {
		t.Errorf("cap did not reduce: %d vs %d", len(capped), len(cands))
	}
}

// TestExhaustiveProposeAllocs guards the memoized upstream distances: every
// edge point's fitness, and CrosscheckSources' distance prerequisite, used to
// rebuild the flow's whole distance map (559 allocations per Propose on the
// sales flow; 244 with the memo).
func TestExhaustiveProposeAllocs(t *testing.T) {
	g := tpcds.SalesETL()
	pats := palette(t)
	allocs := testing.AllocsPerRun(10, func() { Exhaustive{}.Propose(g, pats) })
	if allocs > 300 {
		t.Errorf("Exhaustive.Propose on the sales flow: %.0f allocations, want at most 300", allocs)
	}
}

func TestGreedyTopK(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats := palette(t, fcp.NameFilterNullValues)
	all := fcp.ApplicationPoints(pats[0], g)
	if len(all) < 3 {
		t.Skip("fixture too small for TopK test")
	}
	cands := Greedy{TopK: 2}.Propose(g, pats)
	if len(cands) != 2 {
		t.Fatalf("greedy candidates = %d", len(cands))
	}
	// The greedy picks are the best-fitness points.
	ranked := fcp.RankedPoints(pats[0], g)
	if cands[0].Point != ranked[0] || cands[1].Point != ranked[1] {
		t.Error("greedy did not pick the top-ranked points")
	}
}

func TestGoalDrivenFiltersByGoal(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats := palette(t)
	goals := NewGoals(map[measures.Characteristic]float64{
		measures.Reliability: 1,
	})
	cands := GoalDriven{Goals: goals, TopK: 50}.Propose(g, pats)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.Pattern.Improves() != measures.Reliability {
			t.Errorf("candidate %s targets %s", c, c.Pattern.Improves())
		}
	}
	// TopK caps output.
	few := GoalDriven{Goals: goals, TopK: 1}.Propose(g, pats)
	if len(few) != 1 {
		t.Errorf("TopK=1 gave %d", len(few))
	}
}

func TestRandomSampleDeterministicAndBounded(t *testing.T) {
	g := tpcds.SalesETL()
	pats := palette(t)
	p := RandomSample{N: 5, Seed: 42}
	a := p.Propose(g, pats)
	b := p.Propose(g, pats)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sample sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("sampling not deterministic")
		}
	}
	other := RandomSample{N: 5, Seed: 43}.Propose(g, pats)
	same := true
	for i := range a {
		if a[i].String() != other[i].String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical samples (suspicious)")
	}
	// N larger than the space returns everything.
	all := RandomSample{N: 100000, Seed: 1}.Propose(g, pats)
	exh := Exhaustive{}.Propose(g, pats)
	if len(all) != len(exh) {
		t.Errorf("oversized sample = %d, exhaustive = %d", len(all), len(exh))
	}
}

func TestCandidateString(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats := palette(t, fcp.NameAddCheckpoint)
	cands := Exhaustive{}.Propose(g, pats)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	s := cands[0].String()
	if !strings.Contains(s, fcp.NameAddCheckpoint) || !strings.Contains(s, "edge:") {
		t.Errorf("candidate string = %q", s)
	}
}

// onePerCharacteristic is a user-defined deployment policy (P3: users define
// their own deployment policies by implementing the Policy interface): it
// keeps only the single best placement per quality characteristic.
type onePerCharacteristic struct{}

func (onePerCharacteristic) Name() string { return "one_per_characteristic" }

func (onePerCharacteristic) Propose(g *etl.Graph, palette []fcp.Pattern) []Candidate {
	best := map[measures.Characteristic]Candidate{}
	var order []measures.Characteristic
	for _, pat := range palette {
		for _, pt := range fcp.ApplicationPoints(pat, g) {
			c := Candidate{Pattern: pat, Point: pt, Fitness: pat.Fitness(g, pt)}
			cur, ok := best[pat.Improves()]
			if !ok {
				order = append(order, pat.Improves())
			}
			if !ok || c.Fitness > cur.Fitness {
				best[pat.Improves()] = c
			}
		}
	}
	out := make([]Candidate, 0, len(order))
	for _, char := range order {
		out = append(out, best[char])
	}
	return out
}

func TestCustomPolicyImplementation(t *testing.T) {
	g := tpcds.PurchasesFlow()
	pats := palette(t)
	var pol Policy = onePerCharacteristic{}
	cands := pol.Propose(g, pats)
	if len(cands) == 0 {
		t.Fatal("custom policy proposed nothing")
	}
	seen := map[measures.Characteristic]bool{}
	for _, c := range cands {
		char := c.Pattern.Improves()
		if seen[char] {
			t.Errorf("characteristic %s proposed twice", char)
		}
		seen[char] = true
	}
	// The default palette covers performance, data quality and reliability
	// on this flow.
	for _, char := range []measures.Characteristic{
		measures.Performance, measures.DataQuality, measures.Reliability,
	} {
		if !seen[char] {
			t.Errorf("no candidate for %s", char)
		}
	}
}

func TestGoalsUtility(t *testing.T) {
	goals := NewGoals(map[measures.Characteristic]float64{
		measures.Performance: 2,
		measures.DataQuality: 1,
	})
	r := &measures.Report{Chars: []measures.CharacteristicReport{
		{Characteristic: measures.Performance, Score: 0.5},
		{Characteristic: measures.DataQuality, Score: 0.8},
		{Characteristic: measures.Reliability, Score: 0.9}, // weight 0
	}}
	want := 2*0.5 + 1*0.8
	if got := goals.Utility(r); got != want {
		t.Errorf("utility = %f, want %f", got, want)
	}
	if goals.Weight(measures.Reliability) != 0 {
		t.Error("unset weight should be 0")
	}
}

func TestConstraints(t *testing.T) {
	r := &measures.Report{Chars: []measures.CharacteristicReport{
		{
			Characteristic: measures.Performance,
			Score:          0.6,
			Measures: []measures.Measure{
				{Name: measures.MCycleTime, Value: 120},
			},
		},
	}}
	if !MaxMeasure(measures.Performance, measures.MCycleTime, 150).Satisfied(r) {
		t.Error("120 <= 150 should pass")
	}
	if MaxMeasure(measures.Performance, measures.MCycleTime, 100).Satisfied(r) {
		t.Error("120 <= 100 should fail")
	}
	if !MinMeasure(measures.Performance, measures.MCycleTime, 100).Satisfied(r) {
		t.Error("120 >= 100 should pass")
	}
	if MinMeasure(measures.Performance, "missing", 0).Satisfied(r) {
		t.Error("missing measure should fail")
	}
	if !MinScore(measures.Performance, 0.5).Satisfied(r) {
		t.Error("0.6 >= 0.5 should pass")
	}
	if MinScore(measures.DataQuality, 0.1).Satisfied(r) {
		t.Error("absent characteristic scores 0, must fail")
	}

	ok, name := CheckAll(r, []Constraint{
		MinScore(measures.Performance, 0.5),
		MaxMeasure(measures.Performance, measures.MCycleTime, 100),
	})
	if ok || !strings.Contains(name, measures.MCycleTime) {
		t.Errorf("CheckAll = %v, %q", ok, name)
	}
	if ok, _ := CheckAll(r, nil); !ok {
		t.Error("empty constraint set should pass")
	}
}
