package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
	"poiesis/internal/tpch"
	"poiesis/internal/workloads"
)

var regen = flag.Bool("regen", false, "regenerate testdata/plan_golden.json from the planner")

const planGoldenPath = "testdata/plan_golden.json"

// goldenCase is one planning run whose result digest is frozen in
// testdata/plan_golden.json.
type goldenCase struct {
	name string
	flow *etl.Graph
	bind sim.Binding
	opts Options
}

// goldenCases covers every builtin workload × every registry pattern ×
// depths 1–2 (exhaustive policy, capped at 48 alternatives), plus the
// policy/option matrix of TestStreamingMatchesSequential.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, wl := range workloads.Names() {
		flow, ok := workloads.Get(wl)
		if !ok {
			t.Fatalf("unknown workload %s", wl)
		}
		bind := sim.AutoBinding(flow, 80, 1)
		for _, pat := range fcp.DefaultRegistry().Names() {
			for depth := 1; depth <= 2; depth++ {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/depth=%d", wl, pat, depth),
					flow: flow,
					bind: bind,
					opts: Options{
						Palette:         []string{pat},
						Policy:          policy.Exhaustive{},
						Depth:           depth,
						MaxAlternatives: 48,
						Sim:             deltaMatrixSim(),
					},
				})
			}
		}
	}
	purchases := tpcds.PurchasesFlow()
	revenue := tpch.RevenueETL()
	for _, tc := range []struct {
		name string
		flow *etl.Graph
		bind sim.Binding
		opts Options
	}{
		{"greedy/tpcds", purchases, nil, Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, Sim: fastSim()}},
		{"exhaustive/tpcds", purchases, nil, Options{Policy: policy.Exhaustive{}, Depth: 2, Sim: fastSim()}},
		{"greedy/tpch", revenue, tpch.Binding(revenue, 800, 1), Options{Policy: policy.Greedy{TopK: 3}, Depth: 2, Sim: fastSim()}},
		{"random/tpcds", purchases, nil, Options{Policy: policy.RandomSample{N: 12, Seed: 5}, Depth: 2, Sim: fastSim()}},
		{"capped", purchases, nil, Options{Policy: policy.Exhaustive{}, Depth: 2, MaxAlternatives: 20, Sim: fastSim()}},
		{"nodedup", purchases, nil, Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, DisableDedup: true, Sim: fastSim()}},
		{"oneworker", purchases, nil, Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, Workers: 1, Sim: fastSim()}},
		{"constrained", purchases, nil, Options{
			Policy: policy.Greedy{TopK: 2}, Depth: 2, Sim: fastSim(),
			Constraints: []policy.Constraint{policy.MinScore(measures.Performance, 0.4)},
		}},
	} {
		bind := tc.bind
		if bind == nil {
			bind = tpcds.Binding(tc.flow, 800, 1)
		}
		cases = append(cases, goldenCase{name: "options/" + tc.name, flow: tc.flow, bind: bind, opts: tc.opts})
	}
	return cases
}

// resultDigest is a SHA-256 over a Result's Stats, each alternative's label
// and measure report JSON, and the skyline indices. Report fingerprints are
// blanked: they are flow identities, not planning outcomes, so a change to
// the fingerprint's encoding alone does not move the digest.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	put(res.Stats)
	for i := range res.Alternatives {
		a := &res.Alternatives[i]
		put(a.Label())
		var rep *measures.Report
		if a.Report != nil {
			cp := *a.Report
			cp.Fingerprint = ""
			rep = &cp
		}
		put(rep)
	}
	put(res.SkylineIdx)
	return hex.EncodeToString(h.Sum(nil))
}

// planDigest plans one golden case through the pipeline and digests the
// result.
func planDigest(t *testing.T, tc goldenCase, opts Options) string {
	t.Helper()
	res, err := NewPlanner(nil, opts).Plan(tc.flow, tc.bind)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return resultDigest(t, res)
}

// frozenDigests reads testdata/plan_golden.json: golden case name → result
// digest.
func frozenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run TestPlanGolden -regen` to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPlanGolden pins the planner's results: every golden case must digest
// to the value frozen in testdata/plan_golden.json. The fixture was written
// when the planner still had a sequential pipeline and a row-at-a-time
// engine, after checking that all four combinations with the streaming
// pipeline and the columnar engine agreed on every case. With -regen the
// test rewrites the fixture, after checking that the pipeline agrees with
// the sequential oracle (planSequential) on every case.
//
//	go test ./internal/core -run TestPlanGolden -regen
func TestPlanGolden(t *testing.T) {
	cases := goldenCases(t)
	var want map[string]string
	if !*regen {
		want = frozenDigests(t)
		if len(want) != len(cases) {
			t.Errorf("fixture has %d cases, the test plans %d", len(want), len(cases))
		}
	}
	got := make(map[string]string, len(cases))
	var mu sync.Mutex
	t.Run("case", func(t *testing.T) {
		for _, tc := range cases {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				d := planDigest(t, tc, tc.opts)
				if *regen {
					if seq := resultDigest(t, planSequential(t, tc.flow, tc.bind, tc.opts, oracleMode{})); seq != d {
						t.Fatalf("pipeline digests %s, sequential oracle %s", d, seq)
					}
					mu.Lock()
					got[tc.name] = d
					mu.Unlock()
					return
				}
				if w, ok := want[tc.name]; !ok {
					t.Errorf("no frozen digest")
				} else if w != d {
					t.Errorf("result digest %s, frozen %s", d, w)
				}
			})
		}
	})
	if !*regen || t.Failed() {
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planGoldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
