package core

import (
	"poiesis/internal/etl"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
)

// staticPruner decides, without simulating, that a generated flow — and
// every flow derivable from it by further pattern applications — will be
// rejected by the constraint filter.
//
// The decision uses the achievability argument of etl.Lint (after
// Chirkova/Doyle/Reutter, arXiv:1703.09141) one level down: the structural
// manageability measures (flow size, longest path, merge elements,
// cyclomatic complexity) are computed by the estimator exactly from the
// graph, and every pattern in the space moves them monotonically — builtin
// patterns insert nodes, edit only node parameters, or swap two
// chain-adjacent single-input/single-output nodes, and custom patterns
// insert one operation; none of those moves shrinks any of the four. So
// once a flow exceeds a Max bound on one of them, every descendant does
// too: the whole subtree is statically infeasible and need never be
// evaluated.
//
// Soundness of the result: a pruned flow would have been evaluated and then
// constraint-rejected, so Result.Alternatives and the skyline equal those of
// evaluating every flow, as the no-prune switch of the test oracle checks
// (only Min bounds cannot prune — a too-small value can still grow into
// range deeper in the tree). Stats differ from the no-prune run: pruned
// flows count as StaticPruned instead of Evaluated and ConstraintRejected,
// and when MaxAlternatives caps the run the two may cap at different points
// of the generation order. TestPatternsGrowStructuralMeasures checks the
// monotonicity premise for every registry and example custom pattern.
type staticPruner struct {
	// bounds holds only Max bounds on monotone structural manageability
	// measures; everything else is ignored.
	bounds []policy.Bound
}

// newStaticPruner extracts the prunable bounds of the run's constraints.
// Returns nil (prune nothing) when no constraint is statically decidable.
func newStaticPruner(opts Options) *staticPruner {
	structural := map[string]bool{}
	for _, m := range etl.StructuralMeasures() {
		structural[m] = true
	}
	var bounds []policy.Bound
	for _, b := range policy.BoundsOf(opts.Constraints) {
		if b.Max != nil && b.Characteristic == measures.Manageability && structural[b.Measure] {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return nil
	}
	return &staticPruner{bounds: bounds}
}

// prune reports whether g provably violates one of the prunable bounds.
// A nil pruner prunes nothing.
func (sp *staticPruner) prune(g *etl.Graph) bool {
	if sp == nil {
		return false
	}
	for _, b := range sp.bounds {
		if v, ok := g.StructuralValue(b.Measure); ok && v > *b.Max {
			return true
		}
	}
	return false
}

// LintBounds converts the options' declared constraint bounds into the
// string-typed form etl.Lint consumes, so callers (the server's session
// create, the CLI) can statically validate a flow/constraint pair with the
// exact bounds the planner will enforce.
func (o Options) LintBounds() []etl.QualityBound {
	var out []etl.QualityBound
	for _, b := range policy.BoundsOf(o.Constraints) {
		out = append(out, etl.QualityBound{
			Characteristic: string(b.Characteristic),
			Measure:        b.Measure,
			Min:            b.Min,
			Max:            b.Max,
			Label:          b.Label,
		})
	}
	return out
}
