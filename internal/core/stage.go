package core

import (
	"sync/atomic"
	"time"
)

// StageNanos is the compact cumulative view of the four planner stages
// carried on ProgressEvents, so SSE consumers can watch where a run's time is
// going while it streams.
type StageNanos struct {
	PatternApplication int64
	Evaluation         int64
	ConstraintFilter   int64
	SkylineMerge       int64
}

// stage indices into stageClock.
const (
	siApply = iota
	siEval
	siFilter
	siMerge
	siCount
)

// stageClock accumulates per-stage wall time for one planning run, for
// progress events only. Writers are the pipeline's concurrent workers, hence
// atomics; the collector reads it live.
type stageClock struct {
	nanos [siCount]atomic.Int64
}

// observe adds the time since start to stage i.
func (c *stageClock) observe(i int, start time.Time) {
	c.nanos[i].Add(int64(time.Since(start)))
}

// snapshot returns the cumulative stage nanos for progress events.
func (c *stageClock) snapshot() StageNanos {
	return StageNanos{
		PatternApplication: c.nanos[siApply].Load(),
		Evaluation:         c.nanos[siEval].Load(),
		ConstraintFilter:   c.nanos[siFilter].Load(),
		SkylineMerge:       c.nanos[siMerge].Load(),
	}
}
