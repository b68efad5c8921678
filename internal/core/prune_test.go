package core

import (
	"reflect"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// pruneOptions builds a run whose constraint set contains a structural Max
// bound tight enough to reject part of the generated space: the flow may
// grow by at most one inserted node, so every depth-2 double-insertion
// subtree is statically infeasible.
func pruneOptions(g *etl.Graph, mode PruneMode) Options {
	return Options{
		Policy: policy.Greedy{TopK: 2},
		Depth:  2,
		Constraints: []policy.Constraint{
			policy.MaxMeasure(measures.Manageability, measures.MSize, float64(g.Len()+1)),
		},
		Sim:         fastSim(),
		StaticPrune: mode,
	}
}

// TestStaticPruneSkylineUnchanged is the soundness acceptance check: with a
// binding structural Max constraint, pruning on and off must produce
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

			resOn := planSequential(t, g, bind, pruneOptions(g, PruneOn))
			resOff := planSequential(t, g, bind, pruneOptions(g, PruneOff))

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
			stream := NewPlanner(nil, pruneOptions(g, PruneOn))
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

	opts := mk(policy.MaxMeasure(measures.Manageability, measures.MSize, 5))
	opts.StaticPrune = PruneOff
	if newStaticPruner(opts) != nil {
		t.Error("PruneOff must disable the pruner entirely")
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
