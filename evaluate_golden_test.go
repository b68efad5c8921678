package poiesis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"poiesis"
	"poiesis/internal/etl"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
)

var regenEvaluate = flag.Bool("regen", false, "regenerate testdata/evaluate_golden.json from EvaluateFlow")

const evaluateGoldenPath = "testdata/evaluate_golden.json"

// evaluateCase is one EvaluateFlow call whose report and bottleneck summary
// are frozen in testdata/evaluate_golden.json.
type evaluateCase struct {
	name string
	flow *etl.Graph
	bind sim.Binding
	cfg  sim.Config
}

// retryExhaustingSim makes runs end early: every operation fails often and
// the retry budget is small, so most runs stop partway through the flow.
func retryExhaustingSim() sim.Config {
	return sim.Config{DefaultRows: 300, Seed: 3, RetryBudget: 3, Runs: 48, PipelineOverlap: 0.5}
}

// flakyPurchases is tpcds-purchases with every operation failing 30% of
// the time.
func flakyPurchases() *etl.Graph {
	g, _ := workloads.Get("tpcds-purchases")
	for _, id := range g.NodeIDs() {
		g.MutableNode(id).Cost.FailureRate = 0.3
	}
	return g
}

// evaluateCases covers every builtin workload at the default simulation
// configuration, plus one flow whose failure rates exhaust the retry budget.
func evaluateCases(t *testing.T) []evaluateCase {
	t.Helper()
	var cases []evaluateCase
	for _, wl := range workloads.Names() {
		flow, ok := workloads.Get(wl)
		if !ok {
			t.Fatalf("unknown workload %s", wl)
		}
		cases = append(cases, evaluateCase{name: wl, flow: flow, bind: poiesis.AutoBinding(flow, 400, 1)})
	}
	flaky := flakyPurchases()
	cases = append(cases, evaluateCase{
		name: "retry-exhausted/tpcds-purchases",
		flow: flaky,
		bind: poiesis.AutoBinding(flaky, 300, 1),
		cfg:  retryExhaustingSim(),
	})
	return cases
}

// evaluateDigest is a SHA-256 over the measure report JSON (fingerprint
// blanked, as in the planner's golden digests) and the bottleneck summary.
func evaluateDigest(t *testing.T, rep *poiesis.Report, ops []poiesis.OpBottleneck) string {
	t.Helper()
	cp := *rep
	cp.Fingerprint = ""
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{&cp, ops} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEvaluateFlowGolden pins poiesis.EvaluateFlow: each case's report and
// per-operation bottleneck summary must digest to the frozen value. With
// -regen the test rewrites the fixture.
//
//	go test . -run TestEvaluateFlowGolden -regen
func TestEvaluateFlowGolden(t *testing.T) {
	cases := evaluateCases(t)
	var want map[string]string
	if !*regenEvaluate {
		raw, err := os.ReadFile(evaluateGoldenPath)
		if err != nil {
			t.Fatalf("%v (run `go test . -run TestEvaluateFlowGolden -regen` to create it)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(cases) {
			t.Errorf("fixture has %d cases, the test evaluates %d", len(want), len(cases))
		}
	}
	got := make(map[string]string, len(cases))
	for _, tc := range cases {
		rep, ops, err := poiesis.EvaluateFlow(tc.flow, tc.bind, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := evaluateDigest(t, rep, ops)
		got[tc.name] = d
		if *regenEvaluate {
			continue
		}
		if w, ok := want[tc.name]; !ok {
			t.Errorf("%s: no frozen digest", tc.name)
		} else if w != d {
			t.Errorf("%s: digest %s, frozen %s", tc.name, d, w)
		}
	}
	if !*regenEvaluate || t.Failed() {
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(evaluateGoldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateGoldenCoversEarlyEnds checks that the retry-exhausting case
// really has runs that stop before the last operation, so the fixture pins
// how the bottleneck summary treats them.
func TestEvaluateGoldenCoversEarlyEnds(t *testing.T) {
	flaky := flakyPurchases()
	_, batch, err := sim.NewEngine(retryExhaustingSim()).Evaluate(flaky, poiesis.AutoBinding(flaky, 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range batch.Runs {
		if !r.Succeeded {
			failed++
		}
	}
	if failed == 0 || failed == len(batch.Runs) {
		t.Fatalf("%d of %d runs failed; want some but not all", failed, len(batch.Runs))
	}
}
