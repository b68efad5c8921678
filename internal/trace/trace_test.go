package trace

import (
	"math"
	"testing"
)

func batch() *Batch {
	return &Batch{
		Flow: "t",
		Runs: []Run{
			{Seq: 0, CycleTimeMs: 100, RecoveryMs: 0, Succeeded: true},
			{Seq: 1, CycleTimeMs: 150, RecoveryMs: 50, Succeeded: true},
			{Seq: 2, CycleTimeMs: 400, RecoveryMs: 300, Succeeded: false},
			{Seq: 3, CycleTimeMs: 120, RecoveryMs: 20, Succeeded: true},
		},
		SourceUpdatesPerHour: 2,
		PeriodMinutes:        60,
	}
}

func TestSuccessRate(t *testing.T) {
	if got := batch().SuccessRate(); got != 0.75 {
		t.Errorf("success rate = %f", got)
	}
	empty := &Batch{}
	if got := empty.SuccessRate(); got != 0 {
		t.Errorf("empty success rate = %f", got)
	}
}

func TestMeanCycleTime(t *testing.T) {
	// Mean over successful runs: (100+150+120)/3
	want := (100.0 + 150 + 120) / 3
	if got := batch().MeanCycleTime(); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean cycle = %f, want %f", got, want)
	}
	// All failed: fall back to all runs.
	b := &Batch{Runs: []Run{
		{CycleTimeMs: 10}, {CycleTimeMs: 20},
	}}
	if got := b.MeanCycleTime(); got != 15 {
		t.Errorf("fallback mean = %f", got)
	}
	if got := (&Batch{}).MeanCycleTime(); got != 0 {
		t.Errorf("empty mean = %f", got)
	}
}

func TestMeanRecoveryTime(t *testing.T) {
	want := (0.0 + 50 + 300 + 20) / 4
	if got := batch().MeanRecoveryTime(); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean recovery = %f, want %f", got, want)
	}
	if got := (&Batch{}).MeanRecoveryTime(); got != 0 {
		t.Errorf("empty = %f", got)
	}
}

func TestWithinDeadlineRate(t *testing.T) {
	b := batch()
	if got := b.WithinDeadlineRate(130); got != 0.5 {
		t.Errorf("rate(130) = %f", got) // runs 0 and 3
	}
	if got := b.WithinDeadlineRate(1000); got != 0.75 {
		t.Errorf("rate(1000) = %f", got) // failed run never counts
	}
	if got := b.WithinDeadlineRate(1); got != 0 {
		t.Errorf("rate(1) = %f", got)
	}
	if got := (&Batch{}).WithinDeadlineRate(10); got != 0 {
		t.Errorf("empty = %f", got)
	}
}

func TestPercentileCycleTime(t *testing.T) {
	b := batch() // successful cycle times: 100, 150, 120
	if got := b.PercentileCycleTime(0.5); got != 120 {
		t.Errorf("p50 = %f", got)
	}
	if got := b.PercentileCycleTime(1); got != 150 {
		t.Errorf("p100 = %f", got)
	}
	if got := b.PercentileCycleTime(0); got != 100 {
		t.Errorf("p0 = %f", got)
	}
	if got := b.PercentileCycleTime(0.95); got != 150 {
		t.Errorf("p95 = %f", got)
	}
	// Percentiles ignore failed runs.
	if got := b.PercentileCycleTime(1); got == 400 {
		t.Error("failed run leaked into percentile")
	}
	empty := &Batch{Runs: []Run{{CycleTimeMs: 9, Succeeded: false}}}
	if got := empty.PercentileCycleTime(0.5); got != 0 {
		t.Errorf("all-failed percentile = %f", got)
	}
}

func TestOpSummary(t *testing.T) {
	b := &Batch{
		Ops: []OpStats{
			{Node: "a", Kind: 1, TimeMs: 10, RowsIn: 100},
			{Node: "b", Kind: 2, TimeMs: 30, RowsIn: 90},
			{Node: "c", Kind: 3, TimeMs: 5, RowsIn: 90},
			{Node: "d", Kind: 3, TimeMs: 50, RowsIn: 90},
		},
		Runs: []Run{
			{Reached: 3, Failed: []OpFailure{{Op: 1, Failures: 1}}},
			{Reached: 2, Failed: []OpFailure{{Op: 0, Failures: 1}, {Op: 1, Failures: 2}}},
		},
	}
	sum := b.OpSummary()
	// d was reached by no run, so it is left out.
	if len(sum) != 3 {
		t.Fatalf("ops = %d", len(sum))
	}
	// Bottleneck first: b (30) before a (10) before c (5).
	if sum[0].Node != "b" || sum[1].Node != "a" || sum[2].Node != "c" {
		t.Errorf("order = %s, %s, %s", sum[0].Node, sum[1].Node, sum[2].Node)
	}
	if sum[0].MeanTimeMs != 30 || sum[1].MeanTimeMs != 10 {
		t.Errorf("means = %f, %f", sum[0].MeanTimeMs, sum[1].MeanTimeMs)
	}
	if sum[0].Failures != 3 || sum[1].Failures != 1 || sum[2].Failures != 0 {
		t.Errorf("failures = %d, %d, %d", sum[0].Failures, sum[1].Failures, sum[2].Failures)
	}
	if sum[0].MeanRowsIn != 90 {
		t.Errorf("rows = %f", sum[0].MeanRowsIn)
	}
	wantShare := 30.0 / 45.0
	if diff := sum[0].TimeShare - wantShare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("share = %f, want %f", sum[0].TimeShare, wantShare)
	}
	if got := (&Batch{}).OpSummary(); len(got) != 0 {
		t.Error("empty batch should summarise to nothing")
	}
}

func TestMean(t *testing.T) {
	b := batch()
	got := b.Mean(func(r Run) float64 { return float64(r.Seq) })
	if got != 1.5 {
		t.Errorf("mean seq = %f", got)
	}
	if got := (&Batch{}).Mean(func(Run) float64 { return 1 }); got != 0 {
		t.Errorf("empty mean = %f", got)
	}
}

// PercentileCycleTime runs once per percentile measure per evaluated
// alternative, so a Monte-Carlo batch of the usual size sorts on the stack.
func TestPercentileCycleTimeAllocations(t *testing.T) {
	b := &Batch{}
	for i := range 64 {
		b.Runs = append(b.Runs, Run{CycleTimeMs: float64((i * 37) % 64), Succeeded: i%5 != 0})
	}
	if got := testing.AllocsPerRun(100, func() { b.PercentileCycleTime(0.95) }); got != 0 {
		t.Errorf("PercentileCycleTime allocates %.0f objects on %d runs, want 0", got, len(b.Runs))
	}
}

// NaN cycle times sort first, as they did under sort.Float64s.
func TestPercentileCycleTimeNaN(t *testing.T) {
	b := &Batch{Runs: []Run{
		{CycleTimeMs: 5, Succeeded: true},
		{CycleTimeMs: math.NaN(), Succeeded: true},
		{CycleTimeMs: 3, Succeeded: true},
	}}
	if got := b.PercentileCycleTime(0); !math.IsNaN(got) {
		t.Errorf("p0 = %v, want NaN", got)
	}
	if got := b.PercentileCycleTime(1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := b.PercentileCycleTime(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}
