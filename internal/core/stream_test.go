package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/tpcds"
	"poiesis/internal/tpch"
)

// planBoth runs the same options through the streaming pipeline and the
// sequential oracle on the given flow and returns both results.
func planBoth(t *testing.T, flow string, opts Options) (stream, seq *Result) {
	t.Helper()
	var g = tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)
	if flow == "tpch" {
		g = tpch.RevenueETL()
		bind = tpch.Binding(g, 800, 1)
	}
	stream, err := NewPlanner(nil, opts).Plan(g, bind)
	if err != nil {
		t.Fatal(err)
	}
	return stream, planSequential(t, g, bind, opts, oracleMode{})
}

// requireEquivalent asserts the streaming planner reproduced the sequential
// oracle exactly: same stats, same alternatives in the same order with the
// same measure vectors, same skyline.
func requireEquivalent(t *testing.T, stream, seq *Result) {
	t.Helper()
	if stream.Stats != seq.Stats {
		t.Errorf("stats diverge: streaming %+v, sequential %+v", stream.Stats, seq.Stats)
	}
	if len(stream.Alternatives) != len(seq.Alternatives) {
		t.Fatalf("alternative count: streaming %d, sequential %d",
			len(stream.Alternatives), len(seq.Alternatives))
	}
	for i := range seq.Alternatives {
		sa, qa := &stream.Alternatives[i], &seq.Alternatives[i]
		if sa.Label() != qa.Label() {
			t.Fatalf("alternative %d label: streaming %q, sequential %q", i, sa.Label(), qa.Label())
		}
		if sa.Graph.Fingerprint() != qa.Graph.Fingerprint() {
			t.Errorf("alternative %d fingerprint diverges", i)
		}
		sv := sa.Report.Vector(stream.Dims)
		qv := qa.Report.Vector(seq.Dims)
		if !reflect.DeepEqual(sv, qv) {
			t.Errorf("alternative %d vector: streaming %v, sequential %v", i, sv, qv)
		}
	}
	if !reflect.DeepEqual(stream.SkylineIdx, seq.SkylineIdx) {
		t.Errorf("skyline: streaming %v, sequential %v", stream.SkylineIdx, seq.SkylineIdx)
	}
}

func TestStreamingMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		flow string
		opts Options
	}{
		{"greedy/tpcds", "tpcds", Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, Sim: fastSim()}},
		{"exhaustive/tpcds", "tpcds", Options{Policy: policy.Exhaustive{}, Depth: 2, Sim: fastSim()}},
		{"greedy/tpch", "tpch", Options{Policy: policy.Greedy{TopK: 3}, Depth: 2, Sim: fastSim()}},
		{"random/tpcds", "tpcds", Options{Policy: policy.RandomSample{N: 12, Seed: 5}, Depth: 2, Sim: fastSim()}},
		{"capped", "tpcds", Options{Policy: policy.Exhaustive{}, Depth: 2, MaxAlternatives: 20, Sim: fastSim()}},
		{"nodedup", "tpcds", Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, DisableDedup: true, Sim: fastSim()}},
		{"oneworker", "tpcds", Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, Workers: 1, Sim: fastSim()}},
		{"constrained", "tpcds", Options{
			Policy: policy.Greedy{TopK: 2}, Depth: 2, Sim: fastSim(),
			Constraints: []policy.Constraint{policy.MinScore(measures.Performance, 0.4)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream, seq := planBoth(t, tc.flow, tc.opts)
			requireEquivalent(t, stream, seq)
		})
	}
}

func TestStreamingDeterministicAcrossRuns(t *testing.T) {
	opts := smallOptions()
	a := plan(t, opts)
	b := plan(t, opts)
	requireEquivalent(t, a, b)
}

func TestPlanContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := tpcds.PurchasesFlow()
	p := NewPlanner(nil, smallOptions())
	res, err := p.PlanContext(ctx, g, tpcds.Binding(g, 800, 1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("result returned despite cancellation")
	}
}

// TestPlanContextCancelMidRun cancels a running plan two ways: mode 0 from
// inside the first progress event, which proves work was in flight when the
// context died, and mode 1 from a timer, independent of the progress
// callback.
func TestPlanContextCancelMidRun(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 800, 1)
	for mode := 0; mode < 2; mode++ {
		mode := mode
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			opts := Options{Policy: policy.Exhaustive{}, Depth: 2, Sim: fastSim()}
			var once sync.Once
			if mode == 0 {
				opts.Progress = func(ProgressEvent) { once.Do(cancel) }
			} else {
				time.AfterFunc(10*time.Millisecond, func() { once.Do(cancel) })
			}
			p := NewPlanner(nil, opts)
			start := time.Now()
			res, err := p.PlanContext(ctx, g, bind)
			if !errors.Is(err, context.Canceled) {
				// A fast machine may legitimately finish before the timer;
				// only the progress-triggered cancel is strict.
				if mode == 0 || err != nil {
					t.Fatalf("err = %v, res = %v after %v", err, res != nil, time.Since(start))
				}
			}
			if err != nil && res != nil {
				t.Error("both result and error returned")
			}
		})
	}
}

func TestPlanContextDeadline(t *testing.T) {
	g := tpcds.PurchasesFlow()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	opts := Options{Policy: policy.Exhaustive{}, Depth: 3, Sim: fastSim()}
	_, err := NewPlanner(nil, opts).PlanContext(ctx, g, tpcds.Binding(g, 2000, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestProgressEvents(t *testing.T) {
	g := tpcds.PurchasesFlow()
	opts := smallOptions()
	var mu sync.Mutex
	var events []ProgressEvent
	opts.Progress = func(e ProgressEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	res, err := NewPlanner(nil, opts).Plan(g, tpcds.Binding(g, 800, 1))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// One event per generated alternative, in generation order.
	want := res.Stats.Generated - res.Stats.Deduped
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d; events out of order", i, e.Seq)
		}
		if e.Label == "" {
			t.Errorf("event %d has empty label", i)
		}
	}
	last := events[len(events)-1]
	if last.Evaluated != res.Stats.Evaluated {
		t.Errorf("final event Evaluated = %d, want %d", last.Evaluated, res.Stats.Evaluated)
	}
	if last.Kept != len(res.Alternatives) {
		t.Errorf("final event Kept = %d, want %d", last.Kept, len(res.Alternatives))
	}
	if last.SkylineSize != len(res.SkylineIdx) {
		t.Errorf("final event SkylineSize = %d, want %d", last.SkylineSize, len(res.SkylineIdx))
	}
}

func TestSessionExploreContext(t *testing.T) {
	g := tpcds.PurchasesFlow()
	p := NewPlanner(nil, smallOptions())
	s := NewSession(p, g, tpcds.Binding(g, 800, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExploreContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The session survives a cancelled exploration.
	res, err := s.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkylineIdx) == 0 {
		t.Fatal("no skyline after recovery")
	}
}

// TestStreamingDedupUnderLoad runs the full streaming planner with many
// workers repeatedly; combined with -race this exercises the apply workers'
// concurrent fingerprinting against the committer's dedup decisions, which
// must not depend on the schedule.
func TestStreamingDedupUnderLoad(t *testing.T) {
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 400, 1)
	opts := Options{Policy: policy.Exhaustive{}, Depth: 2, Workers: 8, Sim: fastSim()}
	var base *Result
	for i := 0; i < 3; i++ {
		res, err := NewPlanner(nil, opts).Plan(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		requireEquivalent(t, res, base)
	}
	if base.Stats.Deduped == 0 {
		t.Error("exhaustive depth-2 run produced no duplicates; dedup untested")
	}
}
