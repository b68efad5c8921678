package core

import (
	"testing"

	"poiesis/internal/tpcds"
)

// TestProgressStageNanos asserts the stage clock behind ProgressEvent.StageNs
// only accumulates: every stage's nanos are non-decreasing across the events
// of a run, and by the last event both pattern application and evaluation
// have consumed time.
func TestProgressStageNanos(t *testing.T) {
	g := tpcds.PurchasesFlow()
	var events []ProgressEvent
	p := NewPlanner(nil, Options{Depth: 1, Workers: 4, Sim: fastSim()}).
		WithProgress(func(e ProgressEvent) { events = append(events, e) })
	if _, err := p.Plan(g, tpcds.Binding(g, 800, 1)); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	stages := func(n StageNanos) [siCount]int64 {
		return [siCount]int64{n.PatternApplication, n.Evaluation, n.ConstraintFilter, n.SkylineMerge}
	}
	prev := stages(events[0].StageNs)
	for _, e := range events[1:] {
		cur := stages(e.StageNs)
		for i := range cur {
			if cur[i] < prev[i] {
				t.Fatalf("event %d: stage %d went from %d to %d ns", e.Seq, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
	last := events[len(events)-1].StageNs
	if last.Evaluation <= 0 || last.PatternApplication <= 0 {
		t.Errorf("last event stage nanos %+v: want evaluation and pattern application > 0", last)
	}
}
