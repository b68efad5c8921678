package core

import (
	"testing"

	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// TestColumnarEquivalenceMatrix anchors the columnar engine to the row
// engine it replaced: over every builtin workload × every registry pattern ×
// depths 1–2, the sequential oracle with full evaluation must reproduce the
// result digest frozen in testdata/plan_golden.json, which the row engine
// produced too when the fixture was written.
func TestColumnarEquivalenceMatrix(t *testing.T) {
	want := frozenDigests(t)
	for _, tc := range goldenCases(t) {
		if tc.opts.Palette == nil {
			continue // the option cases; TestPlanGolden covers them
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			full := oracleMode{fullEval: true}
			if got := resultDigest(t, planSequential(t, tc.flow, tc.bind, tc.opts, full)); got != want[tc.name] {
				t.Errorf("full columnar evaluation digests %s, frozen %s", got, want[tc.name])
			}
		})
	}
}

// TestColumnarEquivalenceStreaming checks a multi-pattern space: the
// streaming planner and the sequential oracle, with delta and with full
// evaluation, all reproduce the digest the row engine produced for the
// exhaustive depth-2 golden case.
func TestColumnarEquivalenceStreaming(t *testing.T) {
	var tc goldenCase
	for _, c := range goldenCases(t) {
		if c.name == "options/exhaustive/tpcds" {
			tc = c
		}
	}
	want := frozenDigests(t)[tc.name]
	if got := planDigest(t, tc, tc.opts); got != want {
		t.Errorf("streaming: digest %s, frozen %s", got, want)
	}
	for _, full := range []bool{false, true} {
		if got := resultDigest(t, planSequential(t, tc.flow, tc.bind, tc.opts, oracleMode{fullEval: full})); got != want {
			t.Errorf("sequential, full evaluation=%t: digest %s, frozen %s", full, got, want)
		}
	}
}

// TestColumnarSharedCacheRace drives the default streaming pipeline — whose
// evaluation workers share one sim.EvalCache of columnar cone records — with
// more workers than cores repeatedly; the CI -race run of this package is
// the actual assertion.
func TestColumnarSharedCacheRace(t *testing.T) {
	flow, _ := workloads.Get("tpch-revenue")
	bind := sim.AutoBinding(flow, 60, 1)
	for rep := 0; rep < 3; rep++ {
		planner := NewPlanner(nil, Options{
			Policy:  policy.Exhaustive{},
			Depth:   2,
			Workers: 16,
			Sim:     deltaMatrixSim(),
		})
		if _, err := planner.Plan(flow, bind); err != nil {
			t.Fatal(err)
		}
	}
}
