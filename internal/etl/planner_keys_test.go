package etl_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// checkedPattern keys every flow its pattern builds, right after the
// application, and records the first mismatch.
type checkedPattern struct {
	fcp.Pattern
	applied *atomic.Int64
	failure *atomic.Pointer[error]
}

func (c checkedPattern) Apply(g *etl.Graph, p fcp.Point) (fcp.Application, error) {
	app, err := c.Pattern.Apply(g, p)
	if err == nil {
		c.applied.Add(1)
		if kerr := etl.CheckKeys(g); kerr != nil {
			c.failure.CompareAndSwap(nil, &kerr)
		}
	}
	return app, err
}

// Every design the planner generates keys like a scratch pass: for every
// builtin flow × policy × depth 1–3 × workers {1, 4}, each candidate is
// checked as its pattern is applied (the registry wraps the builtins, so
// nothing is skipped as commuted and every candidate is built), and every
// alternative of the plan with the builtin registry, commutation skip on,
// is checked again after evaluation.
func TestPlannerKeysMatchScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the full matrix twice")
	}
	var applied atomic.Int64
	var failure atomic.Pointer[error]
	checked := fcp.NewRegistry()
	for _, name := range fcp.DefaultRegistry().Names() {
		p, _ := fcp.DefaultRegistry().Get(name)
		checked.MustRegister(checkedPattern{Pattern: p, applied: &applied, failure: &failure})
	}
	cfg := sim.DefaultConfig()
	cfg.DefaultRows, cfg.Runs = 80, 8
	policies := []policy.Policy{
		policy.Exhaustive{MaxPerPattern: 2},
		policy.Greedy{TopK: 2},
		policy.GoalDriven{TopK: 5, Goals: policy.NewGoals(map[measures.Characteristic]float64{
			measures.DataQuality: 1, measures.Reliability: 0.5, measures.Performance: 0.2,
		})},
		policy.RandomSample{N: 8, Seed: 3},
	}
	for _, wl := range workloads.Names() {
		flow, _ := workloads.Get(wl)
		bind := sim.AutoBinding(flow, 60, 1)
		for _, pol := range policies {
			for depth := 1; depth <= 3; depth++ {
				for _, workers := range []int{1, 4} {
					opts := core.Options{Policy: pol, Depth: depth, MaxAlternatives: 300, Workers: workers, Sim: cfg}
					name := fmt.Sprintf("%s/%s/depth=%d/workers=%d", wl, pol.Name(), depth, workers)
					if _, err := core.NewPlanner(checked, opts).Plan(flow, bind); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := failure.Load(); err != nil {
						t.Fatalf("%s: a generated candidate: %v", name, *err)
					}
					res, err := core.NewPlanner(nil, opts).Plan(flow, bind)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, alt := range append([]core.Alternative{res.Initial}, res.Alternatives...) {
						if err := etl.CheckKeys(alt.Graph); err != nil {
							t.Fatalf("%s: alternative %s: %v", name, alt.Label(), err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d generated candidates checked", applied.Load())
}
