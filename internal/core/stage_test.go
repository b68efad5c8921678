package core

import (
	"testing"

	"poiesis/internal/tpcds"
)

// TestStageTimings asserts the pipeline reports the four stage spans in
// order, with evaluation (the dominant stage) having counted every
// alternative plus the baseline.
func TestStageTimings(t *testing.T) {
	g := tpcds.PurchasesFlow()
	res, err := NewPlanner(nil, Options{Depth: 1, Workers: 4, Sim: fastSim()}).Plan(g, tpcds.Binding(g, 800, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != siCount {
		t.Fatalf("%d stages, want %d", len(res.Stages), siCount)
	}
	for i, st := range res.Stages {
		if st.Stage != stageNames[i] {
			t.Errorf("stage[%d] = %q, want %q", i, st.Stage, stageNames[i])
		}
		if st.Nanos < 0 || st.Count < 0 {
			t.Errorf("stage %s negative: %+v", st.Stage, st)
		}
	}
	evals := res.Stages[siEval]
	wantEvals := int64(res.Stats.Evaluated) + 1 // + baseline
	if evals.Count < wantEvals {
		t.Errorf("evaluation count %d < %d", evals.Count, wantEvals)
	}
	if evals.Nanos <= 0 {
		t.Errorf("evaluation span empty: %+v", evals)
	}
	apply := res.Stages[siApply]
	if apply.Count == 0 || apply.Nanos <= 0 {
		t.Errorf("pattern application span empty: %+v", apply)
	}
}
