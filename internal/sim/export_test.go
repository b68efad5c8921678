package sim

import (
	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/trace"
)

// SampleUnmemoized is Sample without the failure memo: it draws every run of
// the profile afresh, adding restart times failure by failure as it meets
// them. It is the reference that memoized sampling must equal exactly.
func (e *Engine) SampleUnmemoized(g *etl.Graph, p *Profile, runs int) []trace.Run {
	if runs <= 0 {
		runs = e.cfg.Runs
	}
	root := data.NewRNG(e.cfg.Seed ^ hashString(p.Flow) ^ 0x5851F42D4C957F2D)
	out := make([]trace.Run, 0, runs)
	for seq := 0; seq < runs; seq++ {
		rng := root.Fork()
		run := trace.Run{Seq: seq, RowsLoaded: p.RowsLoaded, Succeeded: true, Reached: len(p.Order)}
		var fails []trace.OpFailure
		for i, id := range p.Order {
			n := 0
			for rng.Bool(g.Node(id).Cost.FailureRate) {
				n++
				run.FailureCount++
				run.RecoveryMs += p.RestartMs[i]
				if p.RestartFromCheckpoint[i] {
					run.CheckpointsUsed++
				}
				if run.FailureCount > e.cfg.RetryBudget {
					run.Succeeded = false
					break
				}
			}
			if n > 0 {
				fails = append(fails, trace.OpFailure{Op: i, Failures: n})
			}
			if !run.Succeeded {
				run.Reached = i + 1
				break
			}
		}
		run.Failed = fails
		run.CycleTimeMs = p.FirstPassMs + run.RecoveryMs
		if !run.Succeeded {
			run.RowsLoaded = 0
		}
		out = append(out, run)
	}
	return out
}

// FailurePatterns returns how many failure patterns the engine remembers.
func (e *Engine) FailurePatterns() int {
	e.failures.mu.RLock()
	defer e.failures.mu.RUnlock()
	return e.failures.n
}
