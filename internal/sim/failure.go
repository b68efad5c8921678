package sim

import (
	"math"
	"sync"

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
// and which of them failed.
//
// Which operations fail in which run depends only on the flow's failure
// signature: its name (which seeds the sampler), the run count and its
// failure rates in topological order; the engine fixes the seed and the
// retry budget. The planner's alternatives share few signatures, so the
// engine draws each signature's failures once (see failuresOf) and every
// alternative adds only its own restart times and savepoint flags over
// them. The runs' Failed lists are shared with the memo and must not be
// modified.
func (e *Engine) Sample(g *etl.Graph, p *Profile, runs int) []trace.Run {
	if runs <= 0 {
		runs = e.cfg.Runs
	}
	fp := e.failuresOf(g, p, runs)
	out := make([]trace.Run, runs)
	for i, rp := range fp.runs {
		run := trace.Run{
			Seq:          i,
			Succeeded:    rp.succeeded,
			FailureCount: rp.failures,
			Reached:      rp.reached,
			Failed:       rp.failed,
		}
		// Recovery adds up failure by failure in topological order, as the
		// draw met them, so the sums round exactly as they always did.
		for _, f := range rp.failed {
			for range f.Failures {
				run.RecoveryMs += p.RestartMs[f.Op]
			}
			if p.RestartFromCheckpoint[f.Op] {
				run.CheckpointsUsed += f.Failures
			}
		}
		run.CycleTimeMs = p.FirstPassMs + run.RecoveryMs
		if run.Succeeded {
			run.RowsLoaded = p.RowsLoaded
		}
		out[i] = run
	}
	return out
}

// failurePattern is what the failure model draws for one failure
// signature: the flow name, the failure rates in topological order and, per
// run, which operations failed.
type failurePattern struct {
	flow  string
	rates []float64
	runs  []runPattern
}

// runPattern is the failure outcome of one sampled run. failed lists the
// operations that failed at least once in topological order; every run's
// list is a capacity-clamped window of one backing array.
type runPattern struct {
	failed    []trace.OpFailure
	failures  int
	succeeded bool
	reached   int
}

// drawFailures samples runs executions of a flow with the given failure
// rates: each attempt of an operation fails independently, and a run fails
// once its failures exceed the retry budget.
func (e *Engine) drawFailures(flow string, rates []float64, runs int) *failurePattern {
	root := data.NewRNG(e.cfg.Seed ^ hashString(flow) ^ 0x5851F42D4C957F2D)
	fp := &failurePattern{flow: flow, rates: rates, runs: make([]runPattern, runs)}
	var fails []trace.OpFailure
	for r := range fp.runs {
		rng := root.Fork()
		rp := runPattern{succeeded: true, reached: len(rates)}
		start := len(fails)
		for i, rate := range rates {
			n := 0
			for rng.Bool(rate) {
				n++
				rp.failures++
				if rp.failures > e.cfg.RetryBudget {
					rp.succeeded = false
					break
				}
			}
			if n > 0 {
				fails = append(fails, trace.OpFailure{Op: i, Failures: n})
			}
			if !rp.succeeded {
				rp.reached = i + 1
				break
			}
		}
		if len(fails) > start {
			rp.failed = fails[start:len(fails):len(fails)]
		}
		fp.runs[r] = rp
	}
	return fp
}

// failureMemoPatterns bounds a failureMemo: once it holds this many
// patterns, further signatures are drawn but not remembered.
const failureMemoPatterns = 1 << 12

// failureMemo remembers the failure pattern of each failure signature an
// engine has sampled, by a hash of the signature. It is safe for concurrent
// use; the zero value is empty.
type failureMemo struct {
	mu sync.RWMutex
	m  map[uint64][]*failurePattern
	n  int
}

// failuresOf returns the failure pattern of the profiled flow's
// signature for runs runs, from the memo or, on a miss, drawn and stored.
// Patterns are confirmed by comparing the signature exactly, so a hash
// collision costs a draw, never a wrong answer. The signature's rates are
// read straight from the graph, so a hit allocates nothing per node.
func (e *Engine) failuresOf(g *etl.Graph, p *Profile, runs int) *failurePattern {
	m := &e.failures
	h := hashStringInto(hashOrdinal(runs), p.Flow)
	for _, id := range p.Order {
		h = (h ^ math.Float64bits(g.Node(id).Cost.FailureRate)) * fnvPrime
	}
	m.mu.RLock()
	for _, fp := range m.m[h] {
		if fp.matches(g, p, runs) {
			m.mu.RUnlock()
			return fp
		}
	}
	m.mu.RUnlock()

	rates := make([]float64, len(p.Order))
	for i, id := range p.Order {
		rates[i] = g.Node(id).Cost.FailureRate
	}
	fp := e.drawFailures(p.Flow, rates, runs)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, got := range m.m[h] {
		if got.matches(g, p, runs) {
			return got // a concurrent draw of the same signature won
		}
	}
	if m.n < failureMemoPatterns {
		if m.m == nil {
			m.m = map[uint64][]*failurePattern{}
		}
		m.m[h] = append(m.m[h], fp)
		m.n++
	}
	return fp
}

// matches reports whether the pattern was drawn for g's signature.
func (fp *failurePattern) matches(g *etl.Graph, p *Profile, runs int) bool {
	if fp.flow != p.Flow || len(fp.runs) != runs || len(fp.rates) != len(p.Order) {
		return false
	}
	for i, id := range p.Order {
		if math.Float64bits(fp.rates[i]) != math.Float64bits(g.Node(id).Cost.FailureRate) {
			return false
		}
	}
	return true
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
	return e.EvaluateDeltaStats(g, bind, nil, nil)
}

// EvaluateDeltaStats is Evaluate with delta evaluation of the data path: node
// results memoized in cache (keyed by upstream-cone fingerprint) are spliced
// in instead of re-simulated, so only the dirty cone of the flow runs. A nil
// cache is a full evaluation. Results are identical to Evaluate; see
// ExecuteDeltaStats for the cache-sharing contract and for stats (ignored
// when nil).
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
