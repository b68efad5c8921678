package core

import (
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/tpcds"
)

func TestPlanKeyDeterministic(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)
	opts := smallOptions()

	k1, ok1 := PlanKey(g, bind, opts)
	k2, ok2 := PlanKey(tpcds.PurchasesFlow(), tpcds.Binding(tpcds.PurchasesFlow(), 800, 1), smallOptions())
	if !ok1 || !ok2 {
		t.Fatal("small options should be cacheable")
	}
	if k1 != k2 {
		t.Errorf("identical requests produced different keys: %s vs %s", k1, k2)
	}
}

func TestPlanKeyDiscriminates(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)
	base, ok := PlanKey(g, bind, smallOptions())
	if !ok {
		t.Fatal("base not cacheable")
	}

	variants := map[string]func() (string, bool){
		"depth": func() (string, bool) {
			o := smallOptions()
			o.Depth = 3
			return PlanKey(g, bind, o)
		},
		"policy": func() (string, bool) {
			o := smallOptions()
			o.Policy = policy.Exhaustive{}
			return PlanKey(g, bind, o)
		},
		"topk": func() (string, bool) {
			o := smallOptions()
			o.Policy = policy.Greedy{TopK: 5}
			return PlanKey(g, bind, o)
		},
		"dims": func() (string, bool) {
			o := smallOptions()
			o.Dims = []measures.Characteristic{measures.Cost, measures.Performance}
			return PlanKey(g, bind, o)
		},
		"constraints": func() (string, bool) {
			o := smallOptions()
			o.Constraints = []policy.Constraint{policy.MinScore(measures.Performance, 0.5)}
			return PlanKey(g, bind, o)
		},
		"sim_seed": func() (string, bool) {
			o := smallOptions()
			o.Sim.Seed = 99
			return PlanKey(g, bind, o)
		},
		"binding": func() (string, bool) {
			return PlanKey(g, tpcds.Binding(g, 900, 1), smallOptions())
		},
		"flow": func() (string, bool) {
			g2 := tpcds.SalesETL()
			return PlanKey(g2, bind, smallOptions())
		},
		"dedup": func() (string, bool) {
			o := smallOptions()
			o.DisableDedup = true
			return PlanKey(g, bind, o)
		},
		"goals": func() (string, bool) {
			o := smallOptions()
			o.Policy = policy.GoalDriven{
				TopK:  2,
				Goals: policy.NewGoals(map[measures.Characteristic]float64{measures.Performance: 2}),
			}
			return PlanKey(g, bind, o)
		},
	}
	seen := map[string]string{"base": base}
	for name, mk := range variants {
		k, ok := mk()
		if !ok {
			t.Errorf("%s: variant unexpectedly not cacheable", name)
			continue
		}
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		seen[name] = k
	}
}

// Workers and Progress do not influence results, so they must not
// influence the key either — otherwise identical requests from differently
// sized clients would miss the cache.
func TestPlanKeyIgnoresExecutionKnobs(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)
	base, _ := PlanKey(g, bind, smallOptions())

	o := smallOptions()
	o.Workers = 1
	o.Progress = func(ProgressEvent) {}
	k, ok := PlanKey(g, bind, o)
	if !ok {
		t.Fatal("execution knobs must not block caching")
	}
	if k != base {
		t.Error("Workers/Progress changed the key")
	}
}

func TestPlanKeyUncacheable(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)

	o := smallOptions()
	o.CustomMeasures = []measures.CustomMeasure{{Name: "x"}}
	if _, ok := PlanKey(g, bind, o); ok {
		t.Error("custom measures must not be cacheable")
	}

	o = smallOptions()
	o.Policy = fakePolicy{}
	if _, ok := PlanKey(g, bind, o); ok {
		t.Error("unknown policy implementations must not be cacheable")
	}

	if _, ok := PlanKey(nil, bind, smallOptions()); ok {
		t.Error("nil flow must not be cacheable")
	}
}

type fakePolicy struct{}

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) Propose(g *etl.Graph, palette []fcp.Pattern) []policy.Candidate {
	return nil
}
