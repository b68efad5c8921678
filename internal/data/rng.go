// Package data provides deterministic random number generation and synthetic
// tuple generation with controllable data-quality defects (nulls, duplicates,
// erroneous values). It substitutes the TPC-DS/TPC-H dbgen data used by the
// POIESIS demo: the measures only observe cardinalities, defect rates and
// update timestamps, all of which these generators reproduce.
package data

import "math"

// RNG is a splitmix64 pseudo-random generator. It is deterministic across
// platforms and Go versions (unlike math/rand's global source), tiny, and
// fast enough to generate millions of tuples in benchmarks.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("data: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Zipf returns a Zipf-distributed int in [0, n) with skew s > 1, using
// rejection-inversion-free simple inversion over precomputed mass would be
// heavy; for workload generation purposes a bounded power-law draw is
// sufficient and allocation free.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation of a bounded Pareto.
	u := r.Float64()
	x := math.Pow(float64(n), 1-s)
	v := math.Pow(1-u*(1-x), 1/(1-s))
	i := int(v) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Fork derives an independent generator from the current one; generating
// from the fork does not perturb the parent stream. Used to give each
// simulated run its own stream while keeping run N reproducible regardless
// of how much randomness run N-1 consumed.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}
