package core

import (
	"fmt"
	"reflect"
	"testing"

	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

// deltaMatrixSim keeps each cell of the equivalence matrix cheap: the matrix
// multiplies workloads × patterns × depths × pipelines.
func deltaMatrixSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = 80
	cfg.Runs = 8
	return cfg
}

// resultSignature reduces a Result to everything the equivalence contract
// covers: stats, per-alternative labels and full measure reports, and the
// skyline. Graph pointers are excluded (distinct objects by construction).
type resultSignature struct {
	Stats      Stats
	Initial    *measures.Report
	Labels     []string
	Reports    []*measures.Report
	SkylineIdx []int
	Dims       []measures.Characteristic
}

func signatureOf(res *Result) resultSignature {
	sig := resultSignature{
		Stats:      res.Stats,
		Initial:    res.Initial.Report,
		SkylineIdx: res.SkylineIdx,
		Dims:       res.Dims,
	}
	for i := range res.Alternatives {
		a := &res.Alternatives[i]
		sig.Labels = append(sig.Labels, a.Label())
		sig.Reports = append(sig.Reports, a.Report)
	}
	return sig
}

// TestDeltaEquivalenceMatrix is the acceptance oracle for delta evaluation:
// over every builtin workload × every registry pattern × depths 1–2, the
// streaming planner (one cone cache shared by every evaluation) and the
// sequential oracle with full evaluation must produce identical Results —
// same stats, same alternatives with byte-identical measure reports, same
// skyline.
func TestDeltaEquivalenceMatrix(t *testing.T) {
	patterns := fcp.DefaultRegistry().Names()
	for _, wl := range workloads.Names() {
		for _, pat := range patterns {
			for depth := 1; depth <= 2; depth++ {
				wl, pat, depth := wl, pat, depth
				t.Run(fmt.Sprintf("%s/%s/depth=%d", wl, pat, depth), func(t *testing.T) {
					t.Parallel()
					flow, ok := workloads.Get(wl)
					if !ok {
						t.Fatalf("unknown workload %s", wl)
					}
					bind := sim.AutoBinding(flow, 80, 1)
					opts := Options{
						Palette:         []string{pat},
						Policy:          policy.Exhaustive{},
						Depth:           depth,
						MaxAlternatives: 48,
						Sim:             deltaMatrixSim(),
					}
					delta, err := NewPlanner(nil, opts).Plan(flow, bind)
					if err != nil {
						t.Fatal(err)
					}
					full := planSequential(t, flow, bind, opts, oracleMode{fullEval: true})
					if !reflect.DeepEqual(signatureOf(delta), signatureOf(full)) {
						t.Errorf("delta and full evaluation disagree:\ndelta: %+v\nfull:  %+v",
							signatureOf(delta), signatureOf(full))
					}
				})
			}
		}
	}
}

// TestDeltaEquivalenceStreaming checks a multi-pattern space: the streaming
// planner and the sequential oracle with delta evaluation both equal the
// sequential oracle with full evaluation.
func TestDeltaEquivalenceStreaming(t *testing.T) {
	flow, _ := workloads.Get("tpcds-purchases")
	bind := sim.AutoBinding(flow, 120, 1)
	opts := Options{Policy: policy.Exhaustive{}, Depth: 2, Sim: deltaMatrixSim()}
	stream, err := NewPlanner(nil, opts).Plan(flow, bind)
	if err != nil {
		t.Fatal(err)
	}
	want := signatureOf(planSequential(t, flow, bind, opts, oracleMode{fullEval: true}))
	for name, res := range map[string]*Result{
		"stream+delta":     stream,
		"sequential+delta": planSequential(t, flow, bind, opts, oracleMode{}),
	} {
		if got := signatureOf(res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from sequential full evaluation", name)
		}
	}
}

// TestDeltaSharedCacheRace drives the default streaming pipeline — whose
// evaluation workers share one sim.EvalCache — with more workers than cores
// repeatedly; the CI -race run of this package is the actual assertion.
func TestDeltaSharedCacheRace(t *testing.T) {
	flow, _ := workloads.Get("tpch-revenue")
	bind := sim.AutoBinding(flow, 60, 1)
	for rep := 0; rep < 3; rep++ {
		planner := NewPlanner(nil, Options{
			Policy:  policy.Exhaustive{},
			Depth:   2,
			Workers: 16,
			Sim:     deltaMatrixSim(),
		})
		if _, err := planner.Plan(flow, bind); err != nil {
			t.Fatal(err)
		}
	}
}
