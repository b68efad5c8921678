package policy

import (
	"fmt"

	"poiesis/internal/measures"
)

// Constraint rejects alternative designs whose estimated measures violate a
// user-defined bound: "the set of constraints based on estimated measures"
// (§3). Constraints are evaluated after measure estimation; violating
// designs are excluded before the skyline.
type Constraint interface {
	// Name identifies the constraint in diagnostics.
	Name() string
	// Satisfied reports whether the design's report passes.
	Satisfied(r *measures.Report) bool
}

type constraintFunc struct {
	name string
	fn   func(*measures.Report) bool
}

func (c constraintFunc) Name() string                      { return c.name }
func (c constraintFunc) Satisfied(r *measures.Report) bool { return c.fn(r) }

// Bound is the declarative shape of a constraint: one interval endpoint on a
// measure (or, with Measure empty, a characteristic's composite score).
// A caller-implemented Constraint that is not Bounded has none; the standard
// Max/Min/MinScore constructors expose theirs through the Bounded interface
// so static achievability checking (etl.Lint, planner pruning) can reason
// about them without evaluating anything.
type Bound struct {
	Characteristic measures.Characteristic
	// Measure names the bounded measure; empty means the composite score.
	Measure string
	Min     *float64
	Max     *float64
	// Label is the owning constraint's Name.
	Label string
}

// Bounded is implemented by constraints whose predicate is a declared
// interval bound.
type Bounded interface {
	Bound() Bound
}

// boundedConstraint pairs the evaluating predicate with its declared bound.
type boundedConstraint struct {
	constraintFunc
	bound Bound
}

func (c boundedConstraint) Bound() Bound { return c.bound }

// BoundsOf extracts the declared bounds of a constraint list; opaque
// predicates contribute nothing.
func BoundsOf(cs []Constraint) []Bound {
	var out []Bound
	for _, c := range cs {
		if b, ok := c.(Bounded); ok {
			out = append(out, b.Bound())
		}
	}
	return out
}

// MaxMeasure bounds a raw measure value from above (e.g. cycle time below an
// SLA).
func MaxMeasure(c measures.Characteristic, name string, bound float64) Constraint {
	label := fmt.Sprintf("%s.%s <= %g", c, name, bound)
	return boundedConstraint{
		constraintFunc: constraintFunc{name: label, fn: func(r *measures.Report) bool {
			v, ok := r.MeasureValue(c, name)
			return ok && v <= bound
		}},
		bound: Bound{Characteristic: c, Measure: name, Max: &bound, Label: label},
	}
}

// MinMeasure bounds a raw measure value from below (e.g. completeness of at
// least 0.99).
func MinMeasure(c measures.Characteristic, name string, bound float64) Constraint {
	label := fmt.Sprintf("%s.%s >= %g", c, name, bound)
	return boundedConstraint{
		constraintFunc: constraintFunc{name: label, fn: func(r *measures.Report) bool {
			v, ok := r.MeasureValue(c, name)
			return ok && v >= bound
		}},
		bound: Bound{Characteristic: c, Measure: name, Min: &bound, Label: label},
	}
}

// MinScore bounds a characteristic's composite score from below.
func MinScore(c measures.Characteristic, bound float64) Constraint {
	label := fmt.Sprintf("score(%s) >= %g", c, bound)
	return boundedConstraint{
		constraintFunc: constraintFunc{name: label, fn: func(r *measures.Report) bool {
			return r.Score(c) >= bound
		}},
		bound: Bound{Characteristic: c, Min: &bound, Label: label},
	}
}

// CheckAll evaluates all constraints, returning the first violated one's
// name (ok=false) or ok=true.
func CheckAll(r *measures.Report, cs []Constraint) (bool, string) {
	for _, c := range cs {
		if !c.Satisfied(r) {
			return false, c.Name()
		}
	}
	return true, ""
}
