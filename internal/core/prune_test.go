package core

import (
	"reflect"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// pruneOptions builds a run whose constraint set contains a structural Max
// bound tight enough to reject part of the generated space: the flow may
// grow by at most one inserted node, so every depth-2 double-insertion
// subtree is statically infeasible.
func pruneOptions(g *etl.Graph) Options {
	return Options{
		Policy: policy.Greedy{TopK: 2},
		Depth:  2,
		Constraints: []policy.Constraint{
			policy.MaxMeasure(measures.Manageability, measures.MSize, float64(g.Len()+1)),
		},
		Sim: fastSim(),
	}
}

// TestStaticPruneSkylineUnchanged is the soundness acceptance check: with a
// binding structural Max constraint, the pruning planner and the sequential
// oracle without pruning and with full evaluation must produce
// byte-identical alternative sets and skylines on every builtin workload —
// pruned flows are exactly the ones the constraint filter would have
// rejected after paying for evaluation.
func TestStaticPruneSkylineUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("plans every builtin workload twice")
	}
	prunedSomething := false
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			g, ok := workloads.Get(name)
			if !ok {
				t.Fatalf("unknown workload %s", name)
			}
			bind := sim.AutoBinding(g, 400, 1)

			resOn := planSequential(t, g, bind, pruneOptions(g), oracleMode{})
			resOff := planSequential(t, g, bind, pruneOptions(g), oracleMode{fullEval: true, noPrune: true})

			assertSameSpace(t, resOn, resOff)

			// The split of the stats must shift, not the result: whatever the
			// pruner dropped, the baseline evaluated and rejected.
			if resOff.Stats.StaticPruned != 0 {
				t.Errorf("baseline claims %d pruned flows", resOff.Stats.StaticPruned)
			}
			if resOn.Stats.StaticPruned > 0 {
				prunedSomething = true
				if resOn.Stats.Evaluated >= resOff.Stats.Evaluated {
					t.Errorf("pruning did not save evaluations: %d pruned but %d vs %d evaluated",
						resOn.Stats.StaticPruned, resOn.Stats.Evaluated, resOff.Stats.Evaluated)
				}
			}

			// Streaming path places the prune at the same pipeline position;
			// its result must match the sequential pruned run.
			stream := NewPlanner(nil, pruneOptions(g))
			resStream, err := stream.Plan(g, bind)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSpace(t, resStream, resOn)
			if resStream.Stats.StaticPruned != resOn.Stats.StaticPruned {
				t.Errorf("streaming pruned %d, sequential pruned %d",
					resStream.Stats.StaticPruned, resOn.Stats.StaticPruned)
			}
		})
	}
	if !prunedSomething {
		t.Error("no workload triggered the pruner: the equivalence check is vacuous")
	}
}

// assertSameSpace compares two results' alternative spaces and skylines
// byte-for-byte: same order, same graphs, same reports, same frontier.
func assertSameSpace(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Alternatives) != len(b.Alternatives) {
		t.Fatalf("alternative counts differ: %d vs %d", len(a.Alternatives), len(b.Alternatives))
	}
	for i := range a.Alternatives {
		x, y := &a.Alternatives[i], &b.Alternatives[i]
		if x.Label() != y.Label() {
			t.Fatalf("alternative %d label: %q vs %q", i, x.Label(), y.Label())
		}
		if x.Graph.Fingerprint() != y.Graph.Fingerprint() {
			t.Fatalf("alternative %d (%s): fingerprints differ", i, x.Label())
		}
		if !reflect.DeepEqual(x.Report, y.Report) {
			t.Fatalf("alternative %d (%s): reports differ", i, x.Label())
		}
	}
	if !reflect.DeepEqual(a.SkylineIdx, b.SkylineIdx) {
		t.Fatalf("skylines differ: %v vs %v", a.SkylineIdx, b.SkylineIdx)
	}
}

// TestStaticPrunerSelectsBounds pins which constraints may prune: only Max
// bounds on monotone structural manageability measures.
func TestStaticPrunerSelectsBounds(t *testing.T) {
	mk := func(cs ...policy.Constraint) Options {
		return Options{Constraints: cs, Sim: fastSim()}
	}
	if sp := newStaticPruner(mk()); sp != nil {
		t.Error("pruner built with no constraints")
	}
	if sp := newStaticPruner(mk(policy.MinMeasure(measures.Manageability, measures.MSize, 2))); sp != nil {
		t.Error("a Min bound cannot prune: small values can still grow into range")
	}
	if sp := newStaticPruner(mk(policy.MaxMeasure(measures.Performance, measures.MCycleTime, 100))); sp != nil {
		t.Error("a simulated measure cannot prune statically")
	}
	if sp := newStaticPruner(mk(policy.MaxMeasure(measures.Manageability, measures.MCoupling, 3))); sp != nil {
		t.Error("coupling is not monotone and must not prune")
	}
	sp := newStaticPruner(mk(
		policy.MaxMeasure(measures.Manageability, measures.MSize, 5),
		policy.MaxMeasure(measures.Manageability, measures.MLongestPath, 4),
		policy.MinScore(measures.Performance, 0.1),
	))
	if sp == nil || len(sp.bounds) != 2 {
		t.Fatalf("pruner bounds = %+v, want the two structural Max bounds", sp)
	}
}

func TestStaticPrunerPrune(t *testing.T) {
	var nilPruner *staticPruner
	if nilPruner.prune(nil) {
		t.Error("nil pruner pruned")
	}
	g, _ := workloads.Get("tpcds-purchases")
	max := float64(g.Len())
	sp := newStaticPruner(Options{Constraints: []policy.Constraint{
		policy.MaxMeasure(measures.Manageability, measures.MSize, max),
	}})
	if sp.prune(g) {
		t.Error("flow at the bound pruned: the bound is inclusive")
	}
	tight := newStaticPruner(Options{Constraints: []policy.Constraint{
		policy.MaxMeasure(measures.Manageability, measures.MSize, max-1),
	}})
	if !tight.prune(g) {
		t.Error("flow past the bound not pruned")
	}
}

// TestLintBoundsRoundTrip checks that the options' constraints surface to
// etl.Lint with the bound values the planner enforces.
func TestLintBoundsRoundTrip(t *testing.T) {
	opts := Options{Constraints: []policy.Constraint{
		policy.MaxMeasure(measures.Manageability, measures.MSize, 7),
		policy.MinScore(measures.Performance, 0.25),
	}}
	bounds := opts.LintBounds()
	if len(bounds) != 2 {
		t.Fatalf("LintBounds = %+v", bounds)
	}
	if bounds[0].Characteristic != "manageability" || bounds[0].Measure != measures.MSize ||
		bounds[0].Max == nil || *bounds[0].Max != 7 || bounds[0].Min != nil {
		t.Errorf("max bound mapped wrong: %+v", bounds[0])
	}
	if bounds[1].Characteristic != "performance" || bounds[1].Measure != "" ||
		bounds[1].Min == nil || *bounds[1].Min != 0.25 {
		t.Errorf("minScore bound mapped wrong: %+v", bounds[1])
	}
}

// TestPatternsGrowStructuralMeasures checks the premise the static pruner
// (and etl.Lint's unachievable-bound pass) rests on. Chirkova, Doyle and
// Reutter (arXiv:1703.09141) call a quality constraint achievable when some
// sequence of the available procedures yields a result that satisfies it.
// The pruner uses a sufficient condition for the opposite: when no procedure
// can lower a measure, a flow whose value already exceeds a Max bound has no
// descendant that satisfies it. Here the procedures are pattern
// applications, so the test applies every pattern at every application
// point, up to depth 2, on every builtin flow, and checks:
//
//   - each structural measure of the child is at least its parent's;
//   - a flow the pruner cuts (for Max bounds just below, at and just above
//     the initial value of each measure) has no descendant the pruner keeps.
//
// It runs over the default registry, and again with the two custom patterns
// of examples/custompattern registered beside it. A failure is a pruner bug:
// the fix is in the pruner or its bounds, never in this test.
func TestPatternsGrowStructuralMeasures(t *testing.T) {
	extended := fcp.DefaultRegistry()
	for _, spec := range []fcp.CustomSpec{
		{Name: "EncryptInTransit", Kind: fcp.EdgePoint, Improves: measures.Manageability,
			OpKind: etl.OpEncrypt, OpName: "encrypt_stream", Params: map[string]string{"algo": "aes-256-gcm"},
			Conditions:        []fcp.Condition{fcp.UpstreamDistanceAtMost(1), fcp.NoAdjacentKind(etl.OpEncrypt)},
			FitnessNearSource: true},
		{Name: "EnableRBAC", Kind: fcp.GraphPoint, Improves: measures.Manageability,
			Params: map[string]string{"security.rbac": "1"}},
	} {
		pat, err := fcp.NewCustomPattern(spec)
		if err != nil {
			t.Fatal(err)
		}
		extended.MustRegister(pat)
	}
	for _, tc := range []struct {
		name string
		reg  *fcp.Registry
	}{{"builtin", fcp.DefaultRegistry()}, {"custompattern", extended}} {
		t.Run(tc.name, func(t *testing.T) {
			palette, err := tc.reg.Palette()
			if err != nil {
				t.Fatal(err)
			}
			applied, cut := 0, 0
			for _, wl := range workloads.Names() {
				g, _ := workloads.Get(wl)
				a, c := checkStructuralGrowth(t, wl, g, palette, 2)
				applied, cut = applied+a, cut+c
			}
			t.Logf("%d pattern applications, %d of them below a generated flow the pruner cuts", applied, cut)
			if cut == 0 {
				t.Error("the pruner cut no generated flow: its half of the check is vacuous")
			}
		})
	}
}

// checkStructuralGrowth walks the pattern-application tree of g to the given
// depth, expanding each distinct flow once, and checks every application
// against its parent. It returns the number of applications and how many of
// them lie below a generated flow the pruner cuts (bounds that already cut
// the initial flow are checked but not counted).
func checkStructuralGrowth(t *testing.T, wl string, g *etl.Graph, palette []fcp.Pattern, depth int) (applied, belowCut int) {
	t.Helper()
	names := etl.StructuralMeasures()
	var pruners []*staticPruner
	for _, m := range names {
		v0, _ := g.StructuralValue(m)
		for _, max := range []float64{v0 - 1, v0, v0 + 1} {
			sp := newStaticPruner(Options{Constraints: []policy.Constraint{
				policy.MaxMeasure(measures.Manageability, m, max),
			}})
			if sp == nil {
				t.Fatalf("no pruner for a Max bound on %s", m)
			}
			pruners = append(pruners, sp)
		}
	}
	type flow struct {
		g    *etl.Graph
		vals []float64
		cut  []bool // per pruner: this flow or an ancestor is cut
		path string
	}
	measure := func(x *etl.Graph) []float64 {
		vals := make([]float64, len(names))
		for i, m := range names {
			vals[i], _ = x.StructuralValue(m)
		}
		return vals
	}
	root := flow{g: g, vals: measure(g), cut: make([]bool, len(pruners)), path: wl}
	for j, sp := range pruners {
		root.cut[j] = sp.prune(g)
	}
	seen := map[string]bool{g.Fingerprint(): true}
	frontier := []flow{root}
	for d := 0; d < depth; d++ {
		var next []flow
		for _, par := range frontier {
			for _, pat := range palette {
				for _, pt := range fcp.ApplicationPoints(pat, par.g) {
					child := par.g.Clone()
					app, err := pat.Apply(child, pt)
					if err != nil {
						t.Fatalf("%s: %s at a proposed point: %v", par.path, pat.Name(), err)
					}
					applied++
					c := flow{g: child, vals: measure(child), cut: make([]bool, len(pruners)),
						path: par.path + " + " + app.String()}
					for i, m := range names {
						if c.vals[i] < par.vals[i] {
							t.Errorf("%s: %s fell from %g to %g", c.path, m, par.vals[i], c.vals[i])
						}
					}
					below := false
					for j, sp := range pruners {
						c.cut[j] = sp.prune(child)
						if par.cut[j] {
							below = below || !root.cut[j]
							if !c.cut[j] {
								t.Errorf("%s: satisfies %s although an ancestor was cut", c.path, sp.bounds[0].Label)
							}
						}
					}
					if below {
						belowCut++
					}
					if fp := child.Fingerprint(); !seen[fp] {
						seen[fp] = true
						next = append(next, c)
					}
				}
			}
		}
		frontier = next
	}
	return applied, belowCut
}
