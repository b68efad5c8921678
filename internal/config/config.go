// Package config parses the user-defined configuration documents that
// POIESIS "takes as input" alongside the initial ETL flow (Fig. 3): which
// patterns form the palette, which deployment policy places them, the
// prioritisation of quality goals, the measure constraints, the skyline
// dimensions and the simulation parameters. The format is JSON so the demo
// parts P2/P3 ("the user can select the preferred processing parameters ...
// and save their custom processing preferences") are scriptable.
package config

import (
	"encoding/json"
	"fmt"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
)

// Document is the JSON schema of a POIESIS configuration.
type Document struct {
	// Palette selects pattern names (empty = full registry).
	Palette []string `json:"palette,omitempty"`

	// Policy selects the deployment policy: "exhaustive", "greedy",
	// "goal_driven" or "random_sample".
	Policy string `json:"policy,omitempty"`
	// TopK parameterises greedy/goal-driven policies.
	TopK int `json:"topK,omitempty"`
	// SampleN and Seed parameterise random sampling.
	SampleN int    `json:"sampleN,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`

	// Depth is the number of pattern-combination rounds.
	Depth int `json:"depth,omitempty"`
	// MaxAlternatives caps the generated space.
	MaxAlternatives int `json:"maxAlternatives,omitempty"`

	// Goals maps characteristic names to weights.
	Goals map[string]float64 `json:"goals,omitempty"`

	// Dims lists the skyline dimensions (characteristic names).
	Dims []string `json:"dims,omitempty"`

	// Constraints bound estimated measures.
	Constraints []ConstraintDoc `json:"constraints,omitempty"`

	// CustomPatterns declares additional edge/graph patterns (P3).
	CustomPatterns []CustomPatternDoc `json:"customPatterns,omitempty"`

	// Sim tunes the execution engine.
	Sim *SimDoc `json:"sim,omitempty"`
}

// ConstraintDoc is one measure constraint: exactly one of Max/Min/MinScore
// semantics depending on which bound is set.
type ConstraintDoc struct {
	Characteristic string   `json:"characteristic"`
	Measure        string   `json:"measure,omitempty"`
	Max            *float64 `json:"max,omitempty"`
	Min            *float64 `json:"min,omitempty"`
	// MinScore bounds the characteristic's composite score (Measure empty).
	MinScore *float64 `json:"minScore,omitempty"`
}

// CustomPatternDoc declares a custom pattern.
type CustomPatternDoc struct {
	Name     string            `json:"name"`
	Kind     string            `json:"kind"` // "edge" or "graph"
	Improves string            `json:"improves"`
	OpKind   string            `json:"opKind,omitempty"`
	OpName   string            `json:"opName,omitempty"`
	Params   map[string]string `json:"params,omitempty"`
	// NearSource ranks points near data sources higher.
	NearSource bool `json:"nearSource,omitempty"`
	// MaxSourceDistance adds an upstream-distance prerequisite when > 0.
	MaxSourceDistance int `json:"maxSourceDistance,omitempty"`
}

// SimDoc tunes the simulator.
type SimDoc struct {
	DefaultRows     int     `json:"defaultRows,omitempty"`
	Runs            int     `json:"runs,omitempty"`
	RetryBudget     int     `json:"retryBudget,omitempty"`
	PipelineOverlap float64 `json:"pipelineOverlap,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
}

// Parse decodes a configuration document.
func Parse(b []byte) (*Document, error) {
	var d Document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &d, nil
}

// Goals materialises the goal weights.
func (d *Document) GoalSet() (policy.Goals, error) {
	w := map[measures.Characteristic]float64{}
	for name, weight := range d.Goals {
		c, err := parseCharacteristic(name)
		if err != nil {
			return policy.Goals{}, err
		}
		w[c] = weight
	}
	return policy.NewGoals(w), nil
}

// Options materialises planner options (palette, policy, depth, dims,
// constraints, simulation).
func (d *Document) Options() (core.Options, error) {
	opts := core.Options{
		Palette:         append([]string(nil), d.Palette...),
		Depth:           d.Depth,
		MaxAlternatives: d.MaxAlternatives,
	}
	goals, err := d.GoalSet()
	if err != nil {
		return opts, err
	}
	switch d.Policy {
	case "", "greedy":
		k := d.TopK
		if k <= 0 {
			k = 3
		}
		opts.Policy = policy.Greedy{TopK: k}
	case "exhaustive":
		opts.Policy = policy.Exhaustive{MaxPerPattern: d.TopK}
	case "goal_driven":
		opts.Policy = policy.GoalDriven{Goals: goals, TopK: d.TopK}
	case "random_sample":
		opts.Policy = policy.RandomSample{N: d.SampleN, Seed: d.Seed}
	default:
		return opts, fmt.Errorf("config: unknown policy %q", d.Policy)
	}
	for _, name := range d.Dims {
		c, err := parseCharacteristic(name)
		if err != nil {
			return opts, err
		}
		opts.Dims = append(opts.Dims, c)
	}
	for i, cd := range d.Constraints {
		c, err := cd.build()
		if err != nil {
			return opts, fmt.Errorf("config: constraint %d: %w", i, err)
		}
		opts.Constraints = append(opts.Constraints, c)
	}
	if d.Sim != nil {
		cfg := sim.DefaultConfig()
		if d.Sim.DefaultRows > 0 {
			cfg.DefaultRows = d.Sim.DefaultRows
		}
		if d.Sim.Runs > 0 {
			cfg.Runs = d.Sim.Runs
		}
		if d.Sim.RetryBudget > 0 {
			cfg.RetryBudget = d.Sim.RetryBudget
		}
		if d.Sim.PipelineOverlap > 0 {
			cfg.PipelineOverlap = d.Sim.PipelineOverlap
		}
		if d.Sim.Seed != 0 {
			cfg.Seed = d.Sim.Seed
		}
		opts.Sim = cfg
	}
	return opts, nil
}

func (cd ConstraintDoc) build() (policy.Constraint, error) {
	c, err := parseCharacteristic(cd.Characteristic)
	if err != nil {
		return nil, err
	}
	switch {
	case cd.MinScore != nil:
		return policy.MinScore(c, *cd.MinScore), nil
	case cd.Max != nil && cd.Measure != "":
		return policy.MaxMeasure(c, cd.Measure, *cd.Max), nil
	case cd.Min != nil && cd.Measure != "":
		return policy.MinMeasure(c, cd.Measure, *cd.Min), nil
	default:
		return nil, fmt.Errorf("needs minScore, or measure with max/min")
	}
}

// Planner materialises a planner from the document's registry and options.
// A nil document yields the default planner.
func (d *Document) Planner() (*core.Planner, error) {
	if d == nil {
		return core.NewPlanner(nil, core.Options{}), nil
	}
	reg, err := d.Registry()
	if err != nil {
		return nil, err
	}
	opts, err := d.Options()
	if err != nil {
		return nil, err
	}
	return core.NewPlanner(reg, opts), nil
}

// Registry builds the pattern registry: the default palette extended with
// the document's custom patterns.
func (d *Document) Registry() (*fcp.Registry, error) {
	reg := fcp.DefaultRegistry()
	for i, cp := range d.CustomPatterns {
		pat, err := cp.build()
		if err != nil {
			return nil, fmt.Errorf("config: custom pattern %d: %w", i, err)
		}
		if err := reg.Register(pat); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func (cp CustomPatternDoc) build() (fcp.Pattern, error) {
	improves, err := parseCharacteristic(cp.Improves)
	if err != nil {
		return nil, err
	}
	spec := fcp.CustomSpec{
		Name:              cp.Name,
		Improves:          improves,
		OpName:            cp.OpName,
		Params:            cp.Params,
		FitnessNearSource: cp.NearSource,
	}
	switch cp.Kind {
	case "edge":
		spec.Kind = fcp.EdgePoint
		spec.OpKind = etl.ParseOpKind(cp.OpKind)
		if spec.OpKind == etl.OpUnknown {
			return nil, fmt.Errorf("unknown operation kind %q", cp.OpKind)
		}
	case "graph":
		spec.Kind = fcp.GraphPoint
	default:
		return nil, fmt.Errorf("unknown point kind %q (want edge or graph)", cp.Kind)
	}
	if cp.MaxSourceDistance > 0 {
		spec.Conditions = append(spec.Conditions,
			fcp.UpstreamDistanceAtMost(cp.MaxSourceDistance))
	}
	return fcp.NewCustomPattern(spec)
}

func parseCharacteristic(name string) (measures.Characteristic, error) {
	for _, c := range measures.AllCharacteristics() {
		if string(c) == name {
			return c, nil
		}
	}
	return "", fmt.Errorf("config: unknown characteristic %q", name)
}
