package measures

import (
	"poiesis/internal/etl"
	"poiesis/internal/sim"
	"poiesis/internal/trace"
)

// Config holds the reference scales that normalise raw measures into [0,1]
// composite scores. The Planner derives them from the initial flow, so the
// baseline design scores ~0.5 on each ratio-based axis and improvements move
// towards 1. A zero value means "use the measured value itself as its own
// reference" (self-normalisation), which pins the score at 0.5.
type Config struct {
	// DeadlineMs is the delivery deadline used by the reliability measure
	// within_deadline_rate.
	DeadlineMs float64
	// RefCycleMs normalises the performance score.
	RefCycleMs float64
	// RefWorkMs normalises the cost score.
	RefWorkMs float64
	// RefMgmtUnits normalises the manageability score.
	RefMgmtUnits float64
	// CostPerWorkMs converts abstract busy-time into monetary resource cost
	// (the graph-wide resource patterns scale it).
	CostPerWorkMs float64
}

// CustomMeasure is a user-defined quality metric (demo part P3: users define
// "their own Flow Component Patterns, quality metrics and deployment
// policies"). The function computes the raw value from the design and its
// execution evidence; the measure is appended to its characteristic's
// report and participates in relative-change analysis like any builtin.
type CustomMeasure struct {
	Characteristic Characteristic
	Name           string
	Unit           string
	HigherIsBetter bool
	Compute        func(g *etl.Graph, p *sim.Profile, b *trace.Batch) float64
}

// Estimator turns a flow + its execution traces into a quality Report.
type Estimator struct {
	cfg    Config
	custom []CustomMeasure
}

// NewEstimator returns an estimator with the given reference configuration.
func NewEstimator(cfg Config) *Estimator {
	if cfg.CostPerWorkMs <= 0 {
		cfg.CostPerWorkMs = 0.001
	}
	return &Estimator{cfg: cfg}
}

// WithCustomMeasure registers a user-defined metric and returns the
// estimator for chaining. Registration order is presentation order.
func (e *Estimator) WithCustomMeasure(m CustomMeasure) *Estimator {
	e.custom = append(e.custom, m)
	return e
}

// BaselineConfig derives a Config from the initial flow's profile and batch,
// so that alternatives are scored against the initial design. The deadline
// follows the common SLA practice of 1.5x the observed mean cycle time.
func BaselineConfig(g *etl.Graph, p *sim.Profile, b *trace.Batch) Config {
	return Config{
		DeadlineMs:   1.5 * b.MeanCycleTime(),
		RefCycleMs:   b.MeanCycleTime(),
		RefWorkMs:    totalWork(p),
		RefMgmtUnits: mgmtUnits(g, g.LongestPath()),
	}
}

// Estimate computes the full measure tree for one design.
func (e *Estimator) Estimate(g *etl.Graph, p *sim.Profile, b *trace.Batch) *Report {
	r := &Report{Flow: g.Name, Fingerprint: g.Fingerprint()}
	r.Chars = append(r.Chars,
		e.performance(g, p, b),
		e.dataQuality(g, p, b),
		e.manageability(g),
		e.reliability(g, p, b),
		e.cost(g, p, b),
	)
	for _, cm := range e.custom {
		cr, ok := r.Characteristic(cm.Characteristic)
		if !ok {
			r.Chars = append(r.Chars, CharacteristicReport{Characteristic: cm.Characteristic})
			cr = &r.Chars[len(r.Chars)-1]
		}
		cr.Measures = append(cr.Measures, Measure{
			Name:           cm.Name,
			Value:          cm.Compute(g, p, b),
			Unit:           cm.Unit,
			HigherIsBetter: cm.HigherIsBetter,
		})
	}
	return r
}

// ---------------------------------------------------------------- measures

func (e *Estimator) performance(g *etl.Graph, p *sim.Profile, b *trace.Batch) CharacteristicReport {
	cycle := b.MeanCycleTime()
	throughput := 0.0
	if cycle > 0 {
		throughput = float64(p.RowsLoaded) / (cycle / 1000)
	}
	ref := e.cfg.RefCycleMs
	if ref <= 0 {
		ref = cycle
	}
	score := ratioScore(cycle, ref)
	return CharacteristicReport{
		Characteristic: Performance,
		Score:          score,
		Measures: []Measure{
			{
				Name: MCycleTime, Value: cycle, Unit: "ms",
				Detail: []Measure{
					{Name: "first_pass_time", Value: p.FirstPassMs, Unit: "ms"},
					{Name: "mean_recovery_overhead", Value: b.MeanRecoveryTime(), Unit: "ms"},
					{Name: "p95_cycle_time", Value: b.PercentileCycleTime(0.95), Unit: "ms"},
				},
			},
			{Name: MLatencyPerTup, Value: p.LatencyPerTupleMs, Unit: "ms/tuple"},
			{Name: MThroughput, Value: throughput, Unit: "rows/s", HigherIsBetter: true},
		},
	}
}

func (e *Estimator) dataQuality(g *etl.Graph, p *sim.Profile, b *trace.Batch) CharacteristicReport {
	completeness := 1.0
	if p.OutCells > 0 {
		completeness = 1 - float64(p.OutNullCells)/float64(p.OutCells)
	}
	uniqueness, accuracy := 1.0, 1.0
	if p.OutRows > 0 {
		uniqueness = 1 - float64(p.OutDupRows)/float64(p.OutRows)
		accuracy = 1 - float64(p.OutErrRows)/float64(p.OutRows)
	}

	// Freshness per Fig. 1: "Request time - Time of last update". Under
	// periodic recurrence, a request arrives on average half a period after
	// the last load finished, and the loaded data is itself one cycle old.
	ageHours := (b.PeriodMinutes/2)/60 + b.MeanCycleTime()/3.6e6
	// Currency factor per Fig. 1: 1 / (1 - age * frequency-of-updates),
	// guarded where the denominator crosses zero (data older than one
	// upstream refresh interval: maximally stale).
	missed := ageHours * b.SourceUpdatesPerHour
	currency := 0.0
	if missed < 1 {
		currency = 1 / (1 - missed)
	}
	freshScore := 1 / (1 + missed)

	score := (completeness + uniqueness + accuracy + freshScore) / 4
	return CharacteristicReport{
		Characteristic: DataQuality,
		Score:          score,
		Measures: []Measure{
			{
				Name: MFreshness, Value: ageHours, Unit: "h",
				Detail: []Measure{
					{Name: "recurrence_period", Value: b.PeriodMinutes, Unit: "min"},
					{Name: "source_updates_per_hour", Value: b.SourceUpdatesPerHour, Unit: "1/h", HigherIsBetter: true},
				},
			},
			{Name: MCurrency, Value: currency, Unit: ""},
			{
				Name: MCompleteness, Value: completeness, Unit: "ratio", HigherIsBetter: true,
				Detail: []Measure{
					{Name: "null_cells", Value: float64(p.OutNullCells), Unit: "cells"},
					{Name: "total_cells", Value: float64(p.OutCells), Unit: "cells", HigherIsBetter: true},
				},
			},
			{
				Name: MUniqueness, Value: uniqueness, Unit: "ratio", HigherIsBetter: true,
				Detail: []Measure{
					{Name: "duplicate_rows", Value: float64(p.OutDupRows), Unit: "rows"},
				},
			},
			{
				Name: MAccuracy, Value: accuracy, Unit: "ratio", HigherIsBetter: true,
				Detail: []Measure{
					{Name: "erroneous_rows", Value: float64(p.OutErrRows), Unit: "rows"},
				},
			},
		},
	}
}

func (e *Estimator) manageability(g *etl.Graph) CharacteristicReport {
	longest := g.LongestPath()
	units := mgmtUnits(g, longest)
	ref := e.cfg.RefMgmtUnits
	if ref <= 0 {
		ref = units
	}
	return CharacteristicReport{
		Characteristic: Manageability,
		Score:          ratioScore(units, ref),
		Measures: []Measure{
			{Name: MLongestPath, Value: float64(longest), Unit: "ops"},
			{Name: MCoupling, Value: g.Coupling(), Unit: "edges/node"},
			{Name: MMergeCount, Value: float64(g.MergeCount()), Unit: "ops"},
			{
				Name: MSize, Value: float64(g.Len()), Unit: "ops",
				Detail: []Measure{
					{Name: "edges", Value: float64(g.EdgeCount()), Unit: "edges"},
					{Name: "generated_ops", Value: float64(g.GeneratedCount()), Unit: "ops"},
				},
			},
			{Name: MCyclomatic, Value: float64(g.CyclomaticComplexity()), Unit: ""},
		},
	}
}

// mgmtUnits folds the Fig. 1 manageability measures into one structural
// complexity magnitude (lower is better); longest is g.LongestPath().
func mgmtUnits(g *etl.Graph, longest int) float64 {
	return float64(longest) +
		4*g.Coupling() +
		2*float64(g.MergeCount()) +
		0.1*float64(g.Len())
}

func (e *Estimator) reliability(g *etl.Graph, p *sim.Profile, b *trace.Batch) CharacteristicReport {
	deadline := e.cfg.DeadlineMs
	if deadline <= 0 {
		deadline = 1.5 * b.MeanCycleTime()
	}
	within := b.WithinDeadlineRate(deadline)
	success := b.SuccessRate()
	coverage := checkpointCoverage(g, p)
	score := 0.5*success + 0.5*within
	return CharacteristicReport{
		Characteristic: Reliability,
		Score:          score,
		Measures: []Measure{
			{Name: MSuccessRate, Value: success, Unit: "ratio", HigherIsBetter: true,
				Detail: []Measure{
					{Name: "mean_failures_per_run", Value: b.Mean(func(r trace.Run) float64 { return float64(r.FailureCount) }), Unit: ""},
				}},
			{Name: MWithinDeadline, Value: within, Unit: "ratio", HigherIsBetter: true,
				Detail: []Measure{
					{Name: "deadline", Value: deadline, Unit: "ms", HigherIsBetter: true},
				}},
			{Name: MRecoveryTime, Value: b.MeanRecoveryTime(), Unit: "ms"},
			{Name: MCPCoverage, Value: coverage, Unit: "ratio", HigherIsBetter: true},
		},
	}
}

// checkpointCoverage is the fraction of operations whose failure recovery
// can restart from a savepoint rather than from the sources.
func checkpointCoverage(g *etl.Graph, p *sim.Profile) float64 {
	if len(p.Order) == 0 {
		return 0
	}
	n := 0
	for _, cp := range p.RestartFromCheckpoint {
		if cp {
			n++
		}
	}
	return float64(n) / float64(len(p.Order))
}

func (e *Estimator) cost(g *etl.Graph, p *sim.Profile, b *trace.Batch) CharacteristicReport {
	work := totalWork(p)
	ref := e.cfg.RefWorkMs
	if ref <= 0 {
		ref = work
	}
	// Cost accrues per execution: a flow scheduled twice as often costs
	// twice as much per hour (the trade-off of TuneRecurrenceFrequency).
	runsPerHour := 1.0
	if b.PeriodMinutes > 0 {
		runsPerHour = 60 / b.PeriodMinutes
	}
	hourly := work * resourceFactor(g) * runsPerHour
	money := hourly * e.cfg.CostPerWorkMs
	return CharacteristicReport{
		Characteristic: Cost,
		Score:          ratioScore(hourly, ref),
		Measures: []Measure{
			{Name: MTotalWork, Value: work, Unit: "ms",
				Detail: []Measure{
					{Name: "runs_per_hour", Value: runsPerHour, Unit: "1/h"},
				}},
			{Name: MMemPeak, Value: float64(p.MemRowsPeak), Unit: "rows"},
			{Name: MMonetaryCost, Value: money, Unit: "units/h"},
		},
	}
}

func totalWork(p *sim.Profile) float64 {
	// Summation follows the topological order (TimeMs is aligned with
	// p.Order): float addition is not associative, so the iteration order is
	// part of the determinism contract.
	sum := 0.0
	for _, t := range p.TimeMs {
		sum += t
	}
	return sum
}

// resourceFactor reads the graph-wide "resources.cost_factor" convention
// (set by the UpgradeResources pattern: better hardware costs more).
func resourceFactor(g *etl.Graph) float64 {
	for _, n := range g.Nodes() {
		if v := n.Param("resources.cost_factor"); v != "" {
			if f := parseFloatParam(v); f > 0 {
				return f
			}
		}
	}
	return 1
}

func parseFloatParam(s string) float64 {
	var f, frac float64
	seenDot := false
	div := 1.0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac += float64(c-'0') / div
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

// ratioScore maps a lower-is-better magnitude onto (0,1]: ref/(ref+x), so
// x==ref scores 0.5, x->0 scores 1 and x->inf scores 0.
func ratioScore(x, ref float64) float64 {
	if ref <= 0 {
		return 0.5
	}
	return ref / (ref + x)
}
