package core

import (
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
)

// planSequential is the behavioural oracle for the streaming pipeline: the
// three planner stages run strictly in order on one goroutine — breadth-first
// generation of the whole space, then evaluation of every alternative, then
// constraint filtering and one O(n²) skyline pass (skyline.Naive). It
// honours every result-relevant option and reports no stage timings. It
// applies and fingerprints every candidate, so it is also the oracle for the
// streaming planner's commutation skip. Its switches (oracleMode) reach the
// two behaviours the planner no longer offers: full evaluation and no static
// pruning.
func planSequential(t testing.TB, initial *etl.Graph, bind sim.Binding, opts Options, mode oracleMode) *Result {
	t.Helper()
	return planSequentialWith(t, nil, initial, bind, opts, mode)
}

// oracleMode holds the sequential oracle's switches. The zero value is the
// planner's own configuration: one cone cache shared by every evaluation,
// and static pruning.
type oracleMode struct {
	// fullEval re-executes every flow from its sources, with no cone cache.
	fullEval bool
	// noPrune evaluates every generated flow and leaves rejection to the
	// post-evaluation constraint filter.
	noPrune bool
}

// planSequentialWith is planSequential over a given pattern registry (nil is
// the default one).
func planSequentialWith(t testing.TB, reg *fcp.Registry, initial *etl.Graph, bind sim.Binding, opts Options, mode oracleMode) *Result {
	t.Helper()
	p := NewPlanner(reg, opts)
	opts = p.opts
	palette, err := p.reg.Palette(opts.Palette...)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(opts.Sim)
	var cache *sim.EvalCache
	if !mode.fullEval {
		cache = sim.NewEvalCache()
	}
	baseProfile, baseBatch, err := engine.EvaluateDeltaStats(initial, bind, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := measures.NewEstimator(measures.BaselineConfig(initial, baseProfile, baseBatch))
	for _, cm := range opts.CustomMeasures {
		est.WithCustomMeasure(cm)
	}
	res := &Result{
		Dims:    opts.Dims,
		Initial: Alternative{Graph: initial, Report: est.Estimate(initial, baseProfile, baseBatch)},
	}
	alts := generateSequential(p, palette, initial, &res.Stats, mode.noPrune)

	// Evaluation and constraint filtering.
	for _, a := range alts {
		profile, batch, err := engine.EvaluateDeltaStats(a.Graph, bind, cache, nil)
		if err != nil {
			continue
		}
		a.Report = est.Estimate(a.Graph, profile, batch)
		res.Stats.Evaluated++
		if ok, _ := policy.CheckAll(a.Report, opts.Constraints); !ok {
			res.Stats.ConstraintRejected++
			continue
		}
		res.Alternatives = append(res.Alternatives, a)
	}

	// One skyline pass over the chosen dimensions.
	vecs := make([][]float64, len(res.Alternatives))
	for i := range res.Alternatives {
		vecs[i] = res.Alternatives[i].Report.Vector(opts.Dims)
	}
	res.SkylineIdx = skyline.Naive(vecs)
	return res
}

// generateSequential is planSequential's generation stage, one candidate at
// a time: each round applies every proposed candidate to every frontier
// design, deduplicated by fingerprint, statically pruned after dedup unless
// noPrune. It fills stats' generation counts and returns the alternatives in
// order.
func generateSequential(p *Planner, palette []fcp.Pattern, initial *etl.Graph, stats *Stats, noPrune bool) []Alternative {
	opts := p.opts
	seen := map[string]bool{initial.Fingerprint(): true}
	frontier := []Alternative{{Graph: initial}}
	var pruner *staticPruner
	if !noPrune {
		pruner = newStaticPruner(opts)
	}
	var alts []Alternative
generate:
	for round := 0; round < opts.Depth; round++ {
		var next []Alternative
		for _, cur := range frontier {
			cands := opts.Policy.Propose(cur.Graph, palette)
			stats.CandidatesSeen += len(cands)
			for _, c := range cands {
				if len(alts) >= opts.MaxAlternatives {
					stats.Capped = true
					break generate
				}
				clone := cur.Graph.Clone()
				app, err := c.Pattern.Apply(clone, c.Point)
				if err != nil {
					continue
				}
				stats.Generated++
				if !opts.DisableDedup {
					fp := clone.Fingerprint()
					if seen[fp] {
						stats.Deduped++
						continue
					}
					seen[fp] = true
				}
				if pruner.prune(clone) {
					stats.StaticPruned++
					continue
				}
				alt := Alternative{
					Graph:        clone,
					Applications: append(append([]fcp.Application(nil), cur.Applications...), app),
				}
				next = append(next, alt)
				alts = append(alts, alt)
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return alts
}
