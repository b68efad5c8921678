// Package measures implements the quality-measure estimation of POIESIS
// (Fig. 1 of the paper, elaborated in Theodorou et al., "Quality Measures
// for ETL Processes", DaWaK 2014). Measures come in two kinds: those that
// derive directly from the static structure of the process model, and those
// obtained from analysis of historical traces capturing the runtime
// behaviour of ETL components (produced here by internal/sim).
//
// Measures are organised as a tree — characteristic, measure, detail — so
// the Fig. 5 interaction ("when the user selects any of the bars ... the
// corresponding composite measure expands to more detailed measures") is a
// first-class operation.
package measures

import (
	"fmt"
	"strings"
)

// Characteristic is a top-level quality characteristic of an ETL process.
type Characteristic string

// The characteristics tracked by the estimator. Performance, data quality
// and manageability come from Fig. 1; reliability is the third axis of the
// Fig. 4 scatter plot; cost underlies the resource trade-offs of graph-wide
// patterns.
const (
	Performance   Characteristic = "performance"
	DataQuality   Characteristic = "data_quality"
	Manageability Characteristic = "manageability"
	Reliability   Characteristic = "reliability"
	Cost          Characteristic = "cost"
)

// AllCharacteristics lists every characteristic in presentation order.
func AllCharacteristics() []Characteristic {
	return []Characteristic{Performance, DataQuality, Manageability, Reliability, Cost}
}

// Measure is one named quality measure with its raw value.
type Measure struct {
	Name  string
	Value float64
	Unit  string
	// HigherIsBetter orients the measure for relative-change reporting.
	HigherIsBetter bool
	// Detail holds the more detailed composing metrics the measure expands
	// to (Fig. 5 drill-down). May be empty.
	Detail []Measure
}

// String renders "name = value unit".
func (m Measure) String() string {
	return fmt.Sprintf("%s = %.4g %s", m.Name, m.Value, m.Unit)
}

// CharacteristicReport aggregates the measures of one characteristic and its
// normalised composite score in [0,1] (larger values preferred, as required
// by the skyline: "larger values are preferred to smaller ones").
type CharacteristicReport struct {
	Characteristic Characteristic
	// Score is the normalised composite in [0,1].
	Score    float64
	Measures []Measure
}

// Measure returns the named measure of the characteristic report.
func (c *CharacteristicReport) Measure(name string) (Measure, bool) {
	for _, m := range c.Measures {
		if m.Name == name {
			return m, true
		}
	}
	return Measure{}, false
}

// Report is the full quality estimate of one ETL flow design.
type Report struct {
	Flow        string
	Fingerprint string
	Chars       []CharacteristicReport
}

// Characteristic returns the report of one characteristic.
func (r *Report) Characteristic(c Characteristic) (*CharacteristicReport, bool) {
	for i := range r.Chars {
		if r.Chars[i].Characteristic == c {
			return &r.Chars[i], true
		}
	}
	return nil, false
}

// Score returns the composite score of a characteristic (0 when absent).
func (r *Report) Score(c Characteristic) float64 {
	if cr, ok := r.Characteristic(c); ok {
		return cr.Score
	}
	return 0
}

// MeasureValue returns the raw value of a named measure under a
// characteristic; ok is false when either is absent.
func (r *Report) MeasureValue(c Characteristic, name string) (float64, bool) {
	cr, ok := r.Characteristic(c)
	if !ok {
		return 0, false
	}
	m, ok := cr.Measure(name)
	if !ok {
		return 0, false
	}
	return m.Value, true
}

// Vector projects the report onto the given characteristics, returning the
// composite scores in order. The skyline operates on these vectors.
func (r *Report) Vector(dims []Characteristic) []float64 {
	out := make([]float64, len(dims))
	for i, d := range dims {
		out[i] = r.Score(d)
	}
	return out
}

// String renders the full measure tree, two levels of indentation.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "report for %q\n", r.Flow)
	for _, cr := range r.Chars {
		fmt.Fprintf(&b, "  %-14s score=%.4f\n", cr.Characteristic, cr.Score)
		for _, m := range cr.Measures {
			fmt.Fprintf(&b, "    %-32s %12.4g %s\n", m.Name, m.Value, m.Unit)
			for _, d := range m.Detail {
				fmt.Fprintf(&b, "      %-30s %12.4g %s\n", d.Name, d.Value, d.Unit)
			}
		}
	}
	return b.String()
}

// Names of the standard measures, exported so patterns, tests and benchmarks
// reference them without string drift.
const (
	MCycleTime      = "process_cycle_time"
	MLatencyPerTup  = "avg_latency_per_tuple"
	MThroughput     = "throughput"
	MFreshness      = "staleness_age"
	MCurrency       = "currency_factor"
	MCompleteness   = "completeness"
	MUniqueness     = "uniqueness"
	MAccuracy       = "accuracy"
	MLongestPath    = "longest_path"
	MCoupling       = "coupling"
	MMergeCount     = "merge_elements"
	MSize           = "flow_size"
	MCyclomatic     = "cyclomatic_complexity"
	MSuccessRate    = "success_rate"
	MWithinDeadline = "within_deadline_rate"
	MRecoveryTime   = "mean_recovery_time"
	MCPCoverage     = "checkpoint_coverage"
	MTotalWork      = "total_work"
	MMemPeak        = "memory_peak_rows"
	MMonetaryCost   = "resource_cost"
)

// RelChange is the relative change of one measure versus the initial-flow
// baseline, the quantity the Fig. 5 bar graph displays.
type RelChange struct {
	Name string
	// DeltaPct is the raw percentage change of the value: 100*(new-old)/old.
	DeltaPct float64
	// ImprovementPct is DeltaPct sign-adjusted so that positive always means
	// better (a 10% drop of cycle time is a +10% improvement).
	ImprovementPct float64
	// Detail carries drill-down changes of the composing metrics.
	Detail []RelChange
}

// CharRelChange aggregates the relative changes of one characteristic.
type CharRelChange struct {
	Characteristic Characteristic
	// ScoreDeltaPct is the percentage change of the composite score.
	ScoreDeltaPct float64
	Measures      []RelChange
}

// Relative compares a report against the baseline (the initial flow) and
// returns, per characteristic, "the relative change on the metrics for each
// quality characteristic, denoting the estimated effect of selecting each of
// the available flows, compared with the initial flow" (Fig. 5).
func Relative(r, baseline *Report) []CharRelChange {
	var out []CharRelChange
	for _, cr := range r.Chars {
		base, ok := baseline.Characteristic(cr.Characteristic)
		if !ok {
			continue
		}
		c := CharRelChange{
			Characteristic: cr.Characteristic,
			ScoreDeltaPct:  pctChange(base.Score, cr.Score),
		}
		for _, m := range cr.Measures {
			bm, ok := base.Measure(m.Name)
			if !ok {
				continue
			}
			c.Measures = append(c.Measures, relMeasure(m, bm))
		}
		out = append(out, c)
	}
	return out
}

func relMeasure(m, bm Measure) RelChange {
	rc := RelChange{
		Name:     m.Name,
		DeltaPct: pctChange(bm.Value, m.Value),
	}
	rc.ImprovementPct = rc.DeltaPct
	if !m.HigherIsBetter {
		rc.ImprovementPct = -rc.DeltaPct
	}
	for _, d := range m.Detail {
		for _, bd := range bm.Detail {
			if bd.Name == d.Name {
				rc.Detail = append(rc.Detail, relMeasure(d, bd))
				break
			}
		}
	}
	return rc
}

func pctChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return 100 * (new - old) / old
}
