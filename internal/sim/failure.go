package sim

import (
	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/trace"
)

// Sample runs the Monte-Carlo failure model over a precomputed profile and
// returns one trace.Run per sampled execution. The data path is not
// re-executed: failures perturb timing (recovery re-execution) and success,
// not row contents — the savepoints guarantee the same rows are reproduced
// on restart, which is exactly what the AddCheckpoint pattern is for.
//
// Runs are sparse: the per-operation values are the same in every run (see
// trace.Batch.Ops), so a run records only how many operations it reached
// and which of them failed. All runs' failure lists share one backing
// array, and the failure rates are gathered into one dense topo-ordered
// slice, so the runs×nodes loop allocates nothing per node.
func (e *Engine) Sample(g *etl.Graph, p *Profile, runs int) []trace.Run {
	if runs <= 0 {
		runs = e.cfg.Runs
	}
	root := data.NewRNG(e.cfg.Seed ^ hashString(p.Flow) ^ 0x5851F42D4C957F2D)
	out := make([]trace.Run, 0, runs)
	rates := make([]float64, len(p.Order))
	for i, id := range p.Order {
		rates[i] = g.Node(id).Cost.FailureRate
	}
	var fails []trace.OpFailure
	for i := 0; i < runs; i++ {
		rng := root.Fork()
		var run trace.Run
		run, fails = e.sampleOne(rates, p, i, rng, fails)
		out = append(out, run)
	}
	return out
}

// sampleOne samples run seq, appending its failures to fails; the run's
// Failed list is the capacity-clamped tail it appended.
func (e *Engine) sampleOne(rates []float64, p *Profile, seq int, rng *data.RNG, fails []trace.OpFailure) (trace.Run, []trace.OpFailure) {
	run := trace.Run{
		Flow:        p.Flow,
		Seq:         seq,
		FirstPassMs: p.FirstPassMs,
		RowsLoaded:  p.RowsLoaded,
		Succeeded:   true,
		Reached:     len(rates),

		OutRows:      p.OutRows,
		OutNullCells: p.OutNullCells,
		OutDupRows:   p.OutDupRows,
		OutErrRows:   p.OutErrRows,
		OutCells:     p.OutCells,
	}
	budget := e.cfg.RetryBudget
	start := len(fails)
	for i, rate := range rates {
		// Each attempt of the operation may fail independently; a failed
		// attempt forces re-execution from the nearest upstream savepoint.
		n := 0
		for rng.Bool(rate) {
			n++
			run.FailureCount++
			run.RecoveryMs += p.RestartMs[i]
			if p.RestartFromCheckpoint[i] {
				run.CheckpointsUsed++
			}
			if run.FailureCount > budget {
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
	if len(fails) > start {
		run.Failed = fails[start:len(fails):len(fails)]
	}
	run.CycleTimeMs = run.FirstPassMs + run.RecoveryMs
	if !run.Succeeded {
		run.RowsLoaded = 0
	}
	return run, fails
}

// opStats returns the per-operation statistics of the profiled flow in
// topological order: the values every sampled run shares (trace.Batch.Ops).
func opStats(g *etl.Graph, p *Profile) []trace.OpStats {
	ops := make([]trace.OpStats, len(p.Order))
	for i, id := range p.Order {
		n := g.Node(id)
		ops[i] = trace.OpStats{
			Node:    id,
			Kind:    n.Kind,
			RowsIn:  p.RowsIn[i],
			RowsOut: p.RowsOut[i],
			TimeMs:  p.TimeMs[i],
		}
		if n.Kind.IsBlocking() {
			ops[i].MemRows = p.RowsIn[i]
		}
	}
	return ops
}

// Evaluate executes the flow once and samples its failure behaviour,
// returning the full trace batch plus the profile. This is the per-design
// evaluation step of the Planner's "Measures Estimation" stage (Fig. 3).
func (e *Engine) Evaluate(g *etl.Graph, bind Binding) (*Profile, *trace.Batch, error) {
	return e.EvaluateDelta(g, bind, nil)
}

// EvaluateDelta is Evaluate with delta evaluation of the data path: node
// results memoized in cache (keyed by upstream-cone fingerprint) are spliced
// in instead of re-simulated, so only the dirty cone of the flow runs. A nil
// cache is a full evaluation. Results are identical to Evaluate; see
// ExecuteDelta for the cache-sharing contract.
func (e *Engine) EvaluateDelta(g *etl.Graph, bind Binding, cache *EvalCache) (*Profile, *trace.Batch, error) {
	return e.EvaluateDeltaStats(g, bind, cache, nil)
}

// EvaluateDeltaStats is EvaluateDelta reporting splice accounting into stats
// (ignored when nil) — see ExecuteDeltaStats.
func (e *Engine) EvaluateDeltaStats(g *etl.Graph, bind Binding, cache *EvalCache, stats *ExecStats) (*Profile, *trace.Batch, error) {
	p, err := e.ExecuteDeltaStats(g, bind, cache, stats)
	if err != nil {
		return nil, nil, err
	}
	batch := &trace.Batch{
		Flow:                 g.Name,
		Ops:                  opStats(g, p),
		Runs:                 e.Sample(g, p, e.cfg.Runs),
		SourceUpdatesPerHour: e.SourceUpdatesPerHour(g, bind),
		PeriodMinutes:        periodMinutes(g),
	}
	return p, batch, nil
}

// periodMinutes reads the process recurrence period from the graph-wide
// "schedule.period_minutes" convention (set by graph patterns); default 60.
func periodMinutes(g *etl.Graph) float64 {
	for _, n := range g.Nodes() {
		if v := n.Param("schedule.period_minutes"); v != "" {
			if f := parseFloat(v); f > 0 {
				return f
			}
		}
	}
	return 60
}

func parseFloat(s string) float64 {
	var f float64
	var frac float64
	var seenDot bool
	div := 1.0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac = frac + float64(c-'0')/div
			} else {
				f = f*10 + float64(c-'0')
			}
		case c == '.' && !seenDot:
			seenDot = true
		default:
			return 0
		}
	}
	return f + frac
}
