// Package trace defines the run-trace records that the simulator produces
// and the measure estimation consumes. The paper distinguishes measures that
// "derive directly from the static structure of the process model" from
// "those that are obtained from analysis of historical traces capturing the
// runtime behaviour of ETL components"; this package is the schema of those
// historical traces.
package trace

import (
	"math"
	"slices"
	"sort"

	"poiesis/internal/etl"
)

// OpStats captures the runtime behaviour of one operation. The data path is
// deterministic, so these values are the same in every run of a batch; they
// are stored once, in Batch.Ops, and each run records only how far it got and
// what failed.
type OpStats struct {
	Node    etl.NodeID
	Kind    etl.OpKind
	RowsIn  int
	RowsOut int
	// TimeMs is the busy time of the operation (cost units ~ milliseconds).
	TimeMs float64
	// MemRows is the peak number of rows materialised by blocking operations.
	MemRows int
}

// OpFailure records that one operation failed during a run. Each failure
// triggers a retry from the nearest upstream recovery point.
type OpFailure struct {
	// Op is the operation's position in the flow's topological order (its
	// index in Batch.Ops).
	Op int
	// Failures counts how many times the operation failed in the run.
	Failures int
}

// Run is the trace of one end-to-end execution of an ETL flow. It holds only
// what differs between the runs of a batch: the failure-free makespan and
// the output quality at the sinks are properties of the flow's profile
// (sim.Profile), the same in every run, so measures read them there.
type Run struct {
	// Seq is the ordinal of the run within a Monte-Carlo batch.
	Seq int
	// CycleTimeMs is the total wall-clock makespan including failure
	// recovery re-execution: the profile's failure-free makespan plus
	// RecoveryMs.
	CycleTimeMs float64
	// RecoveryMs is the extra time spent re-executing after failures.
	RecoveryMs float64
	// RowsLoaded is the number of rows delivered to all sinks: the
	// profile's count when the run succeeded, 0 when it failed.
	RowsLoaded int
	// Succeeded reports whether the run finished within its retry budget.
	Succeeded bool
	// FailureCount is the number of operation failures encountered.
	FailureCount int
	// CheckpointsUsed counts recoveries that could restart from a savepoint
	// instead of from the sources.
	CheckpointsUsed int
	// Reached is how many operations, in flow topological order, the run
	// executed: all of them, unless a failure exhausted the retry budget.
	Reached int
	// Failed lists the operations that failed at least once, in
	// topological order. Most runs have none. Runs with the same failures
	// may share the list, so it is read-only.
	Failed []OpFailure
}

// Batch is a set of runs of the same flow under the same configuration,
// i.e. the "historical traces" for one design alternative.
type Batch struct {
	Flow string
	// Ops holds the per-operation statistics, in flow topological order,
	// shared by every run.
	Ops  []OpStats
	Runs []Run
	// SourceUpdatesPerHour is the (max) refresh frequency of the flow's
	// sources; the freshness measures need it.
	SourceUpdatesPerHour float64
	// PeriodMinutes is the recurrence period of the process (how often the
	// ETL flow runs); graph-wide patterns may tune it.
	PeriodMinutes float64
}

// SuccessRate returns the fraction of runs that succeeded.
func (b *Batch) SuccessRate() float64 {
	if len(b.Runs) == 0 {
		return 0
	}
	ok := 0
	for _, r := range b.Runs {
		if r.Succeeded {
			ok++
		}
	}
	return float64(ok) / float64(len(b.Runs))
}

// MeanCycleTime returns the mean makespan over successful runs; if no run
// succeeded it falls back to all runs.
func (b *Batch) MeanCycleTime() float64 {
	sum, n := 0.0, 0
	for _, r := range b.Runs {
		if r.Succeeded {
			sum += r.CycleTimeMs
			n++
		}
	}
	if n == 0 {
		for _, r := range b.Runs {
			sum += r.CycleTimeMs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRecoveryTime returns the mean time spent in failure recovery.
func (b *Batch) MeanRecoveryTime() float64 {
	if len(b.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range b.Runs {
		sum += r.RecoveryMs
	}
	return sum / float64(len(b.Runs))
}

// WithinDeadlineRate returns the fraction of runs that succeeded with a
// cycle time not exceeding deadlineMs. It is the paper's reliability (%)
// axis: the probability the process delivers on time.
func (b *Batch) WithinDeadlineRate(deadlineMs float64) float64 {
	if len(b.Runs) == 0 {
		return 0
	}
	ok := 0
	for _, r := range b.Runs {
		if r.Succeeded && r.CycleTimeMs <= deadlineMs {
			ok++
		}
	}
	return float64(ok) / float64(len(b.Runs))
}

// PercentileCycleTime returns the p-quantile (0 < p <= 1) of cycle time
// over successful runs, using nearest-rank. Returns 0 when no run succeeded.
// Tail latency (p95/p99) is what delivery deadlines are really set against.
func (b *Batch) PercentileCycleTime(p float64) float64 {
	// A stack buffer holds the usual Monte-Carlo batch; larger ones spill
	// to the heap.
	var buf [64]float64
	times := buf[:0]
	for _, r := range b.Runs {
		if r.Succeeded {
			times = append(times, r.CycleTimeMs)
		}
	}
	if len(times) == 0 {
		return 0
	}
	slices.Sort(times) // NaNs first, as sort.Float64s orders them
	if p <= 0 {
		return times[0]
	}
	if p >= 1 {
		return times[len(times)-1]
	}
	rank := int(math.Ceil(p*float64(len(times)))) - 1
	if rank < 0 {
		rank = 0
	}
	return times[rank]
}

// Mean aggregates an arbitrary per-run metric.
func (b *Batch) Mean(f func(Run) float64) float64 {
	if len(b.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range b.Runs {
		sum += f(r)
	}
	return sum / float64(len(b.Runs))
}

// OpAgg aggregates one operation's behaviour over a batch of runs: the
// bottleneck view an operator dashboard would show.
type OpAgg struct {
	Node       etl.NodeID
	Kind       etl.OpKind
	MeanTimeMs float64
	MeanRowsIn float64
	// Failures is the total failure count across all runs.
	Failures int
	// TimeShare is the operation's share of total busy time (0..1).
	TimeShare float64
}

// OpSummary aggregates per-operation statistics across the batch, ordered by
// descending mean busy time (bottlenecks first). Runs that ended early (after
// a budget-exhausting failure) contribute the operations they reached;
// operations no run reached are left out.
func (b *Batch) OpSummary() []OpAgg {
	nops := len(b.Ops)
	// reached[i] counts the runs that executed operation i: a histogram of
	// Run.Reached, summed from the top.
	reached := make([]int, nops+1)
	fails := make([]int, nops)
	for _, r := range b.Runs {
		reached[min(r.Reached, nops)]++
		for _, f := range r.Failed {
			fails[f.Op] += f.Failures
		}
	}
	for i := nops - 1; i >= 0; i-- {
		reached[i] += reached[i+1]
	}
	total := 0.0
	out := make([]OpAgg, 0, nops)
	for i, op := range b.Ops {
		n := reached[i+1]
		if n == 0 {
			break
		}
		// The sums repeat the per-run additions, so the means round exactly
		// as averaging n per-run records would.
		time, rows := 0.0, 0.0
		for k := 0; k < n; k++ {
			time += op.TimeMs
			rows += float64(op.RowsIn)
		}
		agg := OpAgg{
			Node:       op.Node,
			Kind:       op.Kind,
			MeanTimeMs: time / float64(n),
			MeanRowsIn: rows / float64(n),
			Failures:   fails[i],
		}
		total += agg.MeanTimeMs
		out = append(out, agg)
	}
	if total > 0 {
		for i := range out {
			out[i].TimeShare = out[i].MeanTimeMs / total
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MeanTimeMs != out[j].MeanTimeMs {
			return out[i].MeanTimeMs > out[j].MeanTimeMs
		}
		return out[i].Node < out[j].Node
	})
	return out
}
