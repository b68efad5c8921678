package sim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
)

// fig4Alternatives plans the Fig. 4 exploration (tpcds-sales, exhaustive,
// depth 2) at the given scale and returns the initial flow, its binding and
// the generated alternatives' flows in planning order.
func fig4Alternatives(tb testing.TB, rows, maxAlternatives int, cfg sim.Config) (*etl.Graph, sim.Binding, []*etl.Graph) {
	tb.Helper()
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, rows, 1)
	res, err := core.NewPlanner(nil, core.Options{
		Policy:          policy.Exhaustive{},
		Depth:           2,
		MaxAlternatives: maxAlternatives,
		Sim:             cfg,
	}).Plan(flow, bind)
	if err != nil {
		tb.Fatal(err)
	}
	alts := make([]*etl.Graph, 0, len(res.Alternatives))
	for i := range res.Alternatives {
		alts = append(alts, res.Alternatives[i].Graph)
	}
	return flow, bind, alts
}

func fig4Sim(rows int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = rows
	cfg.Runs = 32
	return cfg
}

// TestArenaScratchNeverReachesCache evaluates hundreds of Fig. 4
// alternatives back to back from several goroutines on one shared
// EvalCache, so every execution's pooled arena is recycled by the next.
// Each profile must equal a fresh, uncached Execute: a recycled temporary
// that leaked into a cached record would corrupt a later splice. Run it
// under -race as well.
func TestArenaScratchNeverReachesCache(t *testing.T) {
	cfg := fig4Sim(120)
	flow, bind, alts := fig4Alternatives(t, 120, 400, cfg)
	if len(alts) < 300 {
		t.Fatalf("only %d alternatives", len(alts))
	}
	engine := sim.NewEngine(cfg)
	cache := sim.NewEvalCache()
	if _, err := engine.ExecuteDelta(flow, bind, cache); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(alts))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(alts); i += workers {
				g := alts[i]
				got, err := engine.ExecuteDelta(g, bind, cache)
				if err != nil {
					errs <- err.Error()
					continue
				}
				want, err := sim.NewEngine(cfg).Execute(g, bind)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("alternative %d: cached profile differs from an uncached execution", i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("no alternative spliced a cached cone")
	}
}

var profileSink *sim.Profile

// BenchmarkEvaluateFig4Alternatives times the simulator alone at Fig. 4
// scale: execute and sample every alternative of the Fig. 4 plan on one
// shared evaluation cache, as the planner's evaluation stage does, without
// proposing, applying, fingerprinting or estimating.
func BenchmarkEvaluateFig4Alternatives(b *testing.B) {
	cfg := fig4Sim(300)
	flow, bind, alts := fig4Alternatives(b, 300, 4096, cfg)
	flows := append([]*etl.Graph{flow}, alts...)
	engine := sim.NewEngine(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := sim.NewEvalCache()
		for _, g := range flows {
			p, _, err := engine.EvaluateDelta(g, bind, cache)
			if err != nil {
				b.Fatal(err)
			}
			profileSink = p
		}
	}
	b.ReportMetric(float64(len(alts)), "alternatives")
}
