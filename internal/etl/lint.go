package etl

import (
	"fmt"
	"math"
	"sort"

	"poiesis/internal/lint/diag"
)

// This file is the flow-level half of the poiesis static-analysis suite: the
// same diagnostics model the Go-source analyzers of internal/lint speak,
// applied to ETL process graphs and quality-constraint sets. Where Validate
// stops at the first structural error (its callers want a yes/no), Lint
// collects every problem it can see, so a session-create request comes back
// with the complete list instead of one error per round trip.
//
// The achievability layer follows Chirkova/Doyle/Reutter (arXiv:1703.09141):
// decide, before any simulation, whether a constraint set is satisfiable
// anywhere in the pattern space. The decision procedure here is interval
// propagation: each measure's reachable values form an interval, and every
// pattern application moves the structural measures monotonically, so a
// bound that excludes the whole interval can be rejected statically.

// QualityBound is one bound on a quality measure, in the string-typed form
// this package can reason about without importing the measures/policy layers
// (which sit above etl in the dependency order). Characteristic and Measure
// use the canonical names of internal/measures; Measure is empty when the
// bound applies to the characteristic's composite score.
type QualityBound struct {
	Characteristic string
	Measure        string
	Min            *float64
	Max            *float64
	// Label identifies the bound in diagnostics (e.g. the constraint's
	// human-readable name). Empty labels fall back to a derived one.
	Label string
}

func (b QualityBound) label() string {
	if b.Label != "" {
		return b.Label
	}
	name := b.Measure
	if name == "" {
		name = "score"
	}
	return b.Characteristic + "." + name
}

func (b QualityBound) target() string {
	if b.Measure == "" {
		return "score(" + b.Characteristic + ")"
	}
	return b.Characteristic + "." + b.Measure
}

// interval is a closed reachable-value interval [lo, hi] (hi may be +Inf).
type interval struct{ lo, hi float64 }

var inf = math.Inf(1)

// measureIntervals maps canonical measure names to the interval of values
// the estimator can produce on ANY flow. Rates and coverage ratios live in
// [0,1]; times, counts and costs are non-negative; structural counts of a
// non-empty flow are at least 1. The names are string literals because
// importing internal/measures here would be a cycle; the measures package
// carries a consistency test asserting this table matches its constants.
var measureIntervals = map[string]interval{
	"process_cycle_time":    {0, inf},
	"avg_latency_per_tuple": {0, inf},
	"throughput":            {0, inf},
	"staleness_age":         {0, inf},
	"currency_factor":       {0, inf},
	"completeness":          {0, 1},
	"uniqueness":            {0, 1},
	"accuracy":              {0, 1},
	"longest_path":          {1, inf},
	"coupling":              {0, inf},
	"merge_elements":        {0, inf},
	"flow_size":             {1, inf},
	"cyclomatic_complexity": {1, inf},
	"success_rate":          {0, 1},
	"within_deadline_rate":  {0, 1},
	"mean_recovery_time":    {0, inf},
	"checkpoint_coverage":   {0, 1},
	"total_work":            {0, inf},
	"memory_peak_rows":      {0, inf},
	"resource_cost":         {0, inf},
}

// scoreInterval bounds every composite characteristic score.
var scoreInterval = interval{0, 1}

// KnownMeasures lists the measure names the interval table covers, sorted.
// The measures package's consistency test checks this list against its
// canonical name constants (the table must use string literals: importing
// internal/measures here would be an import cycle).
func KnownMeasures() []string {
	names := make([]string, 0, len(measureIntervals))
	for name := range measureIntervals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StructuralMeasures lists the measures that are (a) computed exactly from
// the graph structure by the estimator — no simulation, no noise — and
// (b) monotonically non-decreasing under every pattern in the space: builtin
// patterns insert nodes (dedup/filter/crosscheck/parallelize/checkpoint),
// edit only node parameters (tune/upgrade), or swap two adjacent
// single-in/single-out nodes (pushdown), and custom patterns insert one
// operation. None of those moves can shrink the node count, the longest
// path, the merge count or the cyclomatic complexity. A Max bound below the
// initial flow's value on one of these is therefore unachievable across the
// entire pattern space, not just on the initial flow.
func StructuralMeasures() []string {
	return []string{"flow_size", "longest_path", "merge_elements", "cyclomatic_complexity"}
}

// StructuralValue computes a structural measure's exact value on g; ok is
// false for non-structural (simulated) measures.
func (g *Graph) StructuralValue(measure string) (float64, bool) {
	switch measure {
	case "flow_size":
		return float64(g.Len()), true
	case "longest_path":
		return float64(g.LongestPath()), true
	case "merge_elements":
		return float64(g.MergeCount()), true
	case "cyclomatic_complexity":
		return float64(g.CyclomaticComplexity()), true
	}
	return 0, false
}

// Lint statically validates a flow and its quality bounds, returning every
// problem found (empty means statically clean). The graph half reports
// structural defects: cycles, missing sources/sinks, arity violations,
// operations whose output dangles or that no source feeds, unreachable
// sinks, and schema/type mismatches along edges. The constraint half
// reports bounds that no flow in the pattern space can satisfy:
// range-infeasible bounds, mutually conflicting bounds, and Max bounds on
// monotone structural measures that the initial flow already exceeds.
func Lint(g *Graph, bounds []QualityBound) []diag.Diagnostic {
	var ds []diag.Diagnostic
	ds = append(ds, lintFlow(g)...)
	ds = append(ds, lintBounds(g, bounds)...)
	diag.Sort(ds)
	return ds
}

func (g *Graph) pos(id NodeID) string {
	name := g.Name
	if name == "" {
		name = "flow"
	}
	return name + "/" + string(id)
}

func (g *Graph) edgePos(e Edge) string {
	name := g.Name
	if name == "" {
		name = "flow"
	}
	return fmt.Sprintf("%s/%s->%s", name, e.From, e.To)
}

func lintFlow(g *Graph) []diag.Diagnostic {
	var ds []diag.Diagnostic
	report := func(check, pos, format string, args ...any) {
		ds = append(ds, diag.Diagnostic{Check: check, Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	flowPos := g.Name
	if flowPos == "" {
		flowPos = "flow"
	}
	if g.Len() == 0 {
		report("flow/empty", flowPos, "flow has no operations")
		return ds
	}
	acyclic := true
	if _, err := g.TopoOrder(); err != nil {
		acyclic = false
		report("flow/cycle", flowPos, "flow contains a cycle: an ETL process must be a DAG")
	}
	// Source/sink sets are by operation kind, not by degree: an in-degree-0
	// transform is a dangling node, not a source, and a well-formed island
	// behind one must still count as unreachable.
	var srcs, sinks []*Node
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		if n.Kind.IsSource() {
			srcs = append(srcs, n)
		}
		if n.Kind.IsSink() {
			sinks = append(sinks, n)
		}
	}
	if len(srcs) == 0 && acyclic {
		report("flow/source", flowPos, "flow has no source operation")
	}
	if len(sinks) == 0 && acyclic {
		report("flow/sink", flowPos, "flow has no sink operation")
	}

	// Arity: the same per-node conditions Validate enforces, all collected.
	// flagged remembers nodes already reported so the reachability pass
	// doesn't re-report the same defect under another name.
	flagged := map[NodeID]bool{}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		in, out := g.InDegree(id), g.OutDegree(id)
		if maxIn := n.Kind.MaxInputs(); maxIn >= 0 && in > maxIn {
			report("flow/arity", g.pos(id), "%s accepts at most %d inputs, has %d", n, maxIn, in)
			flagged[id] = true
		}
		if maxOut := n.Kind.MaxOutputs(); maxOut >= 0 && out > maxOut {
			report("flow/arity", g.pos(id), "%s accepts at most %d outputs, has %d", n, maxOut, out)
			flagged[id] = true
		}
		if n.Kind.IsSource() && in > 0 {
			report("flow/arity", g.pos(id), "source %s has inputs", n)
			flagged[id] = true
		}
		if !n.Kind.IsSource() && in == 0 {
			report("flow/dangling", g.pos(id), "%s has no input: nothing feeds it", n)
			flagged[id] = true
		}
		if n.Kind.IsSink() && out > 0 {
			report("flow/arity", g.pos(id), "sink %s has outputs", n)
			flagged[id] = true
		}
		if !n.Kind.IsSink() && out == 0 {
			report("flow/dangling", g.pos(id), "%s has no output: its result dangles instead of reaching a sink", n)
			flagged[id] = true
		}
	}

	// Reachability: forward from sources, backward from sinks. Catches what
	// local arity cannot: well-formed-looking islands that no source feeds
	// (unreachable sinks) or whose output never reaches a sink.
	if acyclic {
		fromSource := reach(g, srcs, g.Succ)
		toSink := reach(g, sinks, g.Pred)
		for _, id := range g.NodeIDs() {
			if flagged[id] {
				continue
			}
			n := g.Node(id)
			if !fromSource[id] {
				if n.Kind.IsSink() {
					report("flow/unreachable", g.pos(id), "sink %s is not reachable from any source", n)
				} else {
					report("flow/unreachable", g.pos(id), "%s is not reachable from any source", n)
				}
			} else if !toSink[id] {
				report("flow/unreachable", g.pos(id), "%s never reaches a sink", n)
			}
		}
	}

	// Schema compatibility along every edge (type mismatches and attributes
	// a pass-through consumer expects but no producer emits).
	for _, e := range g.Edges() {
		if err := checkEdgeSchema(g.Node(e.From), g.Node(e.To)); err != nil {
			report("flow/schema", g.edgePos(e), "%v", err)
		}
	}
	return ds
}

// reach flood-fills from the given start nodes along next (successors for
// forward reachability, predecessors for backward).
func reach(g *Graph, starts []*Node, next func(NodeID) []NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	var stack []NodeID
	for _, n := range starts {
		seen[n.ID] = true
		stack = append(stack, n.ID)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range next(cur) {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return seen
}

func lintBounds(g *Graph, bounds []QualityBound) []diag.Diagnostic {
	var ds []diag.Diagnostic
	report := func(check string, b QualityBound, format string, args ...any) {
		ds = append(ds, diag.Diagnostic{
			Check:   check,
			Pos:     "constraint:" + b.label(),
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Pass 1: each bound against the measure's reachable interval.
	type key struct{ c, m string }
	effective := map[key]interval{}
	for _, b := range bounds {
		iv, known := measureIntervals[b.Measure]
		if b.Measure == "" {
			iv, known = scoreInterval, true
		}
		if known {
			if b.Max != nil && *b.Max < iv.lo {
				report("constraint/range", b, "unachievable: %s <= %g, but the measure's minimum possible value is %g", b.target(), *b.Max, iv.lo)
			}
			if b.Min != nil && *b.Min > iv.hi {
				report("constraint/range", b, "unachievable: %s >= %g, but the measure's maximum possible value is %g", b.target(), *b.Min, iv.hi)
			}
		}
		// Fold into the effective interval per (characteristic, measure) for
		// the conflict pass. Unknown (custom) measures still participate:
		// min > max is contradictory regardless of what the measure means.
		k := key{b.Characteristic, b.Measure}
		cur, ok := effective[k]
		if !ok {
			cur = interval{math.Inf(-1), inf}
		}
		if b.Min != nil && *b.Min > cur.lo {
			cur.lo = *b.Min
		}
		if b.Max != nil && *b.Max < cur.hi {
			cur.hi = *b.Max
		}
		effective[k] = cur
	}

	// Pass 2: conflicting bounds on the same target (empty intersection).
	reported := map[key]bool{}
	for _, b := range bounds {
		k := key{b.Characteristic, b.Measure}
		if reported[k] {
			continue
		}
		if iv := effective[k]; iv.lo > iv.hi {
			reported[k] = true
			report("constraint/conflict", b, "unachievable: bounds on %s require >= %g and <= %g simultaneously", b.target(), iv.lo, iv.hi)
		}
	}

	// Pass 3: monotone achievability of structural bounds. The reachable
	// interval of a structural measure over the whole pattern space is
	// [value(initial flow), +inf): interval propagation over the pattern
	// moves (every move inserts operations, edits parameters, or swaps two
	// chain-adjacent operations) never lowers it. A Max below the initial
	// value excludes the entire space.
	if g == nil || g.Len() == 0 {
		return ds
	}
	if _, err := g.TopoOrder(); err != nil {
		return ds // structural values are meaningless on a cyclic graph
	}
	for _, b := range bounds {
		if b.Max == nil || b.Characteristic != "manageability" {
			continue
		}
		v0, ok := g.StructuralValue(b.Measure)
		if !ok {
			continue
		}
		if *b.Max < v0 {
			report("constraint/achievability", b,
				"unachievable anywhere in the pattern space: %s <= %g, but the initial flow already measures %g and every pattern application is monotone non-decreasing on this measure",
				b.target(), *b.Max, v0)
		}
	}
	return ds
}
