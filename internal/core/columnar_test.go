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
			opts := tc.opts
			opts.DeltaEval = DeltaOff
			if got := resultDigest(t, planSequential(t, tc.flow, tc.bind, opts)); got != want[tc.name] {
				t.Errorf("full columnar evaluation digests %s, frozen %s", got, want[tc.name])
			}
		})
	}
}

// TestColumnarEquivalenceStreaming closes the 2x2 on a multi-pattern space:
// the streaming pipeline and the sequential oracle, each with delta and with
// full evaluation, all reproduce the digest the row engine produced for the
// exhaustive depth-2 golden case.
func TestColumnarEquivalenceStreaming(t *testing.T) {
	var tc goldenCase
	for _, c := range goldenCases(t) {
		if c.name == "options/exhaustive/tpcds" {
			tc = c
		}
	}
	want := frozenDigests(t)[tc.name]
	for _, d := range []DeltaMode{DeltaOn, DeltaOff} {
		opts := tc.opts
		opts.DeltaEval = d
		if got := planDigest(t, tc, opts); got != want {
			t.Errorf("streaming, delta=%v: digest %s, frozen %s", d, got, want)
		}
		if got := resultDigest(t, planSequential(t, tc.flow, tc.bind, opts)); got != want {
			t.Errorf("sequential, delta=%v: digest %s, frozen %s", d, got, want)
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
