package skyline

import "sort"

// Incremental maintains a Pareto frontier under streaming insertion. The
// planner's streaming pipeline offers each evaluated alternative as it
// arrives instead of collecting the full design space and running one O(n²)
// pass at the end; at any moment the structure holds exactly the
// non-dominated subset of the points offered so far.
//
// Each Add compares the candidate against the current frontier only (at most
// |frontier| dominance checks): a point dominated by any frontier member is
// rejected outright — dominance is transitive, so a point dominated by a
// *dropped* member is also dominated by whichever member dropped it — and an
// accepted point evicts the frontier members it dominates. The final frontier
// is therefore identical, as a set, to Naive over the same points. Duplicates
// of frontier points are kept, matching Dominates' strict-improvement
// requirement.
//
// Incremental is not safe for concurrent use; the planner's collector stage
// is its single writer.
type Incremental struct {
	ids  []int
	vecs [][]float64
}

// NewIncremental returns an empty frontier.
func NewIncremental() *Incremental { return &Incremental{} }

// Add offers a point with an external identifier. It returns true when the
// point joins the frontier, false when an existing member dominates it. The
// vector is retained; callers must not mutate it afterwards.
func (inc *Incremental) Add(id int, vec []float64) bool {
	for _, v := range inc.vecs {
		if Dominates(v, vec) {
			return false
		}
	}
	keep := 0
	for i := range inc.vecs {
		if !Dominates(vec, inc.vecs[i]) {
			inc.ids[keep], inc.vecs[keep] = inc.ids[i], inc.vecs[i]
			keep++
		}
	}
	inc.ids, inc.vecs = inc.ids[:keep], inc.vecs[:keep]
	inc.ids = append(inc.ids, id)
	inc.vecs = append(inc.vecs, vec)
	return true
}

// Len returns the current frontier size.
func (inc *Incremental) Len() int { return len(inc.ids) }

// Indices returns the identifiers of the current frontier in ascending
// order, matching the output convention of Naive.
func (inc *Incremental) Indices() []int {
	out := append([]int(nil), inc.ids...)
	sort.Ints(out)
	return out
}
