// Package skyline computes Pareto frontiers over multidimensional quality
// vectors. POIESIS presents to the user "only the Pareto frontier (skyline)
// of the complete set of alternative designs, based on their evaluation
// according to the examined quality dimensions, where larger values are
// preferred to smaller ones": a design is dropped when another design is at
// least as good in every dimension and strictly better in one.
//
// The planner builds its frontier with Incremental, one evaluated
// alternative at a time. Naive, the O(n²) pairwise pass, is the reference
// Incremental is tested and benchmarked against.
package skyline

// Dominates reports whether a Pareto-dominates b under maximisation: a is at
// least as large in every dimension and strictly larger in at least one.
// Vectors of different lengths are incomparable (never dominate).
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// Naive computes the skyline by comparing every pair: O(n²·d). It returns
// ascending indices and is the correctness oracle for Incremental.
func Naive(points [][]float64) []int {
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}
