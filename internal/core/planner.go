// Package core implements the POIESIS Planner: the component that takes an
// initial ETL flow and user-defined configurations, automatically generates
// and applies Flow Component Patterns "in varying positions and combinations
// ... resulting to thousands of alternative ETL flows", estimates quality
// measures for every alternative, and returns the Pareto frontier of the
// design space (Fig. 3).
//
// The Planner separates the three architecture stages:
//
//	Pattern Generation  — enumerate valid (pattern, point) candidates per
//	                      deployment policy,
//	Pattern Application — clone the flow and weave candidates in, breadth
//	                      first over combination depth, deduplicated by
//	                      canonical fingerprint,
//	Measures Estimation — execute + Monte-Carlo sample every alternative on
//	                      a bounded worker pool (substituting the paper's
//	                      background cloud nodes) and score it.
//
// The three stages run as one concurrent streaming pipeline: candidate
// application feeds a bounded channel of freshly woven alternatives, the
// evaluation pool consumes them as they appear — so estimation overlaps
// generation instead of waiting for the complete space — constraint
// filtering happens in-stream, and the Pareto frontier is maintained
// incrementally (skyline.Incremental) rather than in one O(n²) pass at the
// end. Results are deterministic: the pipeline commits alternatives in
// generation order, whatever the worker scheduling.
//
// PlanContext supports cancellation mid-run, and Options.Progress streams
// one event per processed alternative to the caller.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/obs"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
)

// Options configures one planning run.
type Options struct {
	// Palette selects patterns by name from the registry; empty means the
	// whole registry (demo part P2 lets the user pick a subset).
	Palette []string
	// Policy decides which candidate applications are explored per round.
	// Default: Greedy{TopK: 3}.
	Policy policy.Policy
	// Depth is the number of pattern-addition rounds ("this process can be
	// repeated an arbitrary number of times"). Default 2.
	Depth int
	// MaxAlternatives caps the generated space. Default 4096.
	MaxAlternatives int
	// Dims are the skyline dimensions (Fig. 4 axes). Default: performance,
	// data quality, reliability.
	Dims []measures.Characteristic
	// Constraints reject alternatives violating measure bounds.
	Constraints []policy.Constraint
	// Workers sizes the evaluation pool. Default: GOMAXPROCS.
	Workers int
	// Sim configures the execution engine.
	Sim sim.Config
	// DisableDedup turns fingerprint deduplication off (ablation A3).
	DisableDedup bool
	// CustomMeasures extends the estimator with user-defined quality
	// metrics (P3); they appear in every report of the run.
	CustomMeasures []measures.CustomMeasure
	// Progress, when non-nil, receives one event per alternative as the
	// pipeline finishes processing it, in generation order from a single
	// goroutine.
	Progress func(ProgressEvent)
}

func (o Options) withDefaults() Options {
	if o.Policy == nil {
		o.Policy = policy.Greedy{TopK: 3}
	}
	if o.Depth <= 0 {
		o.Depth = 2
	}
	if o.MaxAlternatives <= 0 {
		o.MaxAlternatives = 4096
	}
	if len(o.Dims) == 0 {
		o.Dims = []measures.Characteristic{
			measures.Performance, measures.DataQuality, measures.Reliability,
		}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Sim.Runs == 0 {
		o.Sim = sim.DefaultConfig()
	}
	return o
}

// Alternative is one generated design with its provenance and estimate.
type Alternative struct {
	// Graph is the rewritten flow.
	Graph *etl.Graph
	// Applications is the deployment history relative to the initial flow.
	Applications []fcp.Application
	// Report holds the estimated measures (nil until evaluated).
	Report *measures.Report
	// Err records an evaluation failure, leaving Report nil.
	Err error
}

// Label renders the application history, e.g.
// "AddCheckpoint@edge:drv->ld3 + FilterNullValues@edge:src->flt".
func (a *Alternative) Label() string {
	if len(a.Applications) == 0 {
		return "initial"
	}
	s := ""
	for i, app := range a.Applications {
		if i > 0 {
			s += " + "
		}
		s += app.String()
	}
	return s
}

// Stats summarises one planning run.
type Stats struct {
	// CandidatesSeen counts every (pattern, point) candidate proposed.
	CandidatesSeen int
	// Generated counts successful candidate applications, duplicates included.
	Generated int
	// Deduped counts the duplicates, found by commutation before application
	// (genNode.markCommuted) or by fingerprint after it.
	Deduped int
	// Evaluated counts flows whose measures were estimated.
	Evaluated int
	// ConstraintRejected counts evaluated flows that violated constraints.
	ConstraintRejected int
	// StaticPruned counts flows dropped before evaluation because they — and
	// their whole pattern subtree — provably violate a constraint (see
	// staticPruner).
	StaticPruned int
	// Capped reports whether MaxAlternatives stopped generation early.
	Capped bool
}

// Result is the outcome of one planning run.
type Result struct {
	// Initial is the evaluated initial flow (the Fig. 5 baseline).
	Initial Alternative
	// Alternatives are the evaluated, constraint-satisfying designs.
	Alternatives []Alternative
	// SkylineIdx indexes Alternatives: the Pareto frontier presented to the
	// user (Fig. 4).
	SkylineIdx []int
	// Dims are the characteristics the skyline was computed over.
	Dims []measures.Characteristic
	// Stats describes the run.
	Stats Stats

	// record memoizes the result's snapshot and its JSON encoding for
	// Session.Snapshot. A published Result is read-only and the plan cache
	// shares it between sessions, so however many sessions record it, it is
	// snapshotted and encoded once.
	record resultRecord
}

// Skyline returns the frontier alternatives in index order.
func (r *Result) Skyline() []*Alternative {
	out := make([]*Alternative, 0, len(r.SkylineIdx))
	for _, i := range r.SkylineIdx {
		out = append(out, &r.Alternatives[i])
	}
	return out
}

// Best returns the skyline alternative maximising the goals' utility; falls
// back to the initial design when the frontier is empty.
func (r *Result) Best(goals policy.Goals) *Alternative {
	best := &r.Initial
	bestU := goals.Utility(r.Initial.Report)
	for _, a := range r.Skyline() {
		if a.Report == nil {
			continue
		}
		if u := goals.Utility(a.Report); u > bestU {
			best, bestU = a, u
		}
	}
	return best
}

// Planner generates and evaluates alternative ETL designs.
type Planner struct {
	reg  *fcp.Registry
	opts Options
}

// NewPlanner builds a planner over a pattern registry. A nil registry uses
// the default palette.
func NewPlanner(reg *fcp.Registry, opts Options) *Planner {
	if reg == nil {
		reg = fcp.DefaultRegistry()
	}
	return &Planner{reg: reg, opts: opts.withDefaults()}
}

// Registry exposes the pattern repository (for palette listing and custom
// pattern registration).
func (p *Planner) Registry() *fcp.Registry { return p.reg }

// Options returns the effective options after defaulting.
func (p *Planner) Options() Options { return p.opts }

// WithProgress installs the per-alternative progress callback after
// construction (the CLI uses it on planners materialised from configuration
// documents). It returns the planner for chaining and must not be called
// concurrently with Plan.
func (p *Planner) WithProgress(fn func(ProgressEvent)) *Planner {
	p.opts.Progress = fn
	return p
}

// ErrInvalidFlow wraps validation failures of the input flow.
var ErrInvalidFlow = errors.New("core: invalid initial flow")

// Plan runs one full generate-apply-estimate cycle on the initial flow.
func (p *Planner) Plan(initial *etl.Graph, bind sim.Binding) (*Result, error) {
	return p.PlanContext(context.Background(), initial, bind)
}

// PlanContext runs one full generate-apply-estimate cycle on the initial
// flow, honouring context cancellation: when ctx is cancelled mid-run, the
// pipeline drains its workers and returns ctx's error instead of a result.
func (p *Planner) PlanContext(ctx context.Context, initial *etl.Graph, bind sim.Binding) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "planner.plan")
	defer span.End()
	res, err := p.planContext(ctx, span, initial, bind)
	if err != nil {
		span.Fail(err)
	}
	return res, err
}

func (p *Planner) planContext(ctx context.Context, span *obs.Span, initial *etl.Graph, bind sim.Binding) (*Result, error) {
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidFlow, err)
	}
	palette, err := p.reg.Palette(p.opts.Palette...)
	if err != nil {
		return nil, err
	}
	// One engine and one run-scoped cone cache: every evaluation worker shares
	// the cache, so an alternative re-simulates only the cones its pattern
	// applications dirtied. The cache serves exactly this (engine config,
	// binding) pair — the sharing contract of sim.EvalCache.
	engine, cache := sim.NewEngine(p.opts.Sim), sim.NewEvalCache()
	clock := &stageClock{}

	// Baseline evaluation anchors the measure normalisation and Fig. 5
	// relative changes — and seeds the shared cache with the initial flow's
	// cones, the common prefix of every alternative.
	baseStart := time.Now()
	var baseES *sim.ExecStats
	if span != nil {
		baseES = &sim.ExecStats{}
	}
	baseProfile, baseBatch, err := engine.EvaluateDeltaStats(initial, bind, cache, baseES)
	clock.observe(siEval, baseStart)
	if err != nil {
		return nil, fmt.Errorf("core: evaluating initial flow: %w", err)
	}
	if span != nil {
		span.Record("planner.baseline", baseStart, time.Since(baseStart),
			obs.Int("nodes", int64(baseES.Nodes)),
			obs.Int("executed", int64(baseES.Executed)),
			obs.Int("cone_hits", int64(baseES.ConeHits)),
			obs.Int("forwarded", int64(baseES.Forwarded)))
	}
	est := measures.NewEstimator(measures.BaselineConfig(initial, baseProfile, baseBatch))
	for _, cm := range p.opts.CustomMeasures {
		est.WithCustomMeasure(cm)
	}
	res := &Result{Dims: p.opts.Dims}
	res.Initial = Alternative{
		Graph:  initial,
		Report: est.Estimate(initial, baseProfile, baseBatch),
	}

	if err := p.planStream(ctx, initial, bind, palette, engine, cache, est, res, clock); err != nil {
		return nil, err
	}
	if span != nil {
		span.SetInt("candidates_seen", int64(res.Stats.CandidatesSeen))
		span.SetInt("generated", int64(res.Stats.Generated))
		span.SetInt("deduped", int64(res.Stats.Deduped))
		span.SetInt("static_pruned", int64(res.Stats.StaticPruned))
		span.SetInt("evaluated", int64(res.Stats.Evaluated))
		span.SetInt("constraint_rejected", int64(res.Stats.ConstraintRejected))
		span.SetInt("skyline", int64(len(res.SkylineIdx)))
	}
	return res, nil
}

// recordAlternative files the tracing spans for one evaluated alternative:
// a planner.alternative span annotated with the flow fingerprint, and the
// simulation itself as a sim.evaluate child carrying the cone-splice
// accounting (how much of the flow was served from the delta cache versus
// actually re-simulated). A nil sp is the untraced path and costs nothing.
func recordAlternative(sp *obs.Span, a *Alternative, es *sim.ExecStats, start time.Time) {
	if sp == nil {
		return
	}
	d := time.Since(start)
	attrs := []obs.Attr{obs.String("fingerprint", shortFingerprint(a.Graph))}
	if a.Err != nil {
		attrs = append(attrs, obs.String("error", a.Err.Error()))
	}
	altID := sp.Record("planner.alternative", start, d, attrs...)
	if es == nil {
		es = &sim.ExecStats{}
	}
	sp.RecordChildOf(altID, "sim.evaluate", start, d,
		obs.Int("nodes", int64(es.Nodes)),
		obs.Int("executed", int64(es.Executed)),
		obs.Int("cone_hits", int64(es.ConeHits)),
		obs.Int("forwarded", int64(es.Forwarded)))
}

// shortFingerprint truncates a flow fingerprint to a span-attribute-sized
// prefix: enough to correlate alternatives across spans and log lines.
func shortFingerprint(g *etl.Graph) string {
	fp := g.Fingerprint()
	if len(fp) > 16 {
		fp = fp[:16]
	}
	return fp
}
