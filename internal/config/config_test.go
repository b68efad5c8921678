package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"poiesis/internal/core"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/tpcds"
)

const fullDoc = `{
  "palette": ["AddCheckpoint", "FilterNullValues"],
  "policy": "goal_driven",
  "topK": 5,
  "depth": 2,
  "maxAlternatives": 500,
  "goals": {"reliability": 2, "performance": 1},
  "dims": ["performance", "reliability"],
  "constraints": [
    {"characteristic": "performance", "measure": "process_cycle_time", "max": 100000},
    {"characteristic": "data_quality", "measure": "completeness", "min": 0.5},
    {"characteristic": "reliability", "minScore": 0.1}
  ],
  "customPatterns": [
    {"name": "EncryptNearSource", "kind": "edge", "improves": "manageability",
     "opKind": "encrypt", "nearSource": true, "maxSourceDistance": 1},
    {"name": "EnableRBAC", "kind": "graph", "improves": "manageability",
     "params": {"security.rbac": "1"}}
  ],
  "sim": {"defaultRows": 300, "runs": 16, "retryBudget": 4, "pipelineOverlap": 0.5, "seed": 9}
}`

func TestParseFullDocument(t *testing.T) {
	d, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Palette) != 2 || opts.Depth != 2 || opts.MaxAlternatives != 500 {
		t.Errorf("options = %+v", opts)
	}
	if _, ok := opts.Policy.(policy.GoalDriven); !ok {
		t.Errorf("policy = %T", opts.Policy)
	}
	if len(opts.Dims) != 2 || opts.Dims[0] != measures.Performance {
		t.Errorf("dims = %v", opts.Dims)
	}
	if len(opts.Constraints) != 3 {
		t.Errorf("constraints = %d", len(opts.Constraints))
	}
	if opts.Sim.DefaultRows != 300 || opts.Sim.Runs != 16 ||
		opts.Sim.RetryBudget != 4 || opts.Sim.Seed != 9 {
		t.Errorf("sim = %+v", opts.Sim)
	}
	goals, err := d.GoalSet()
	if err != nil {
		t.Fatal(err)
	}
	if goals.Weight(measures.Reliability) != 2 {
		t.Error("goal weights wrong")
	}
	reg, err := d.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("EncryptNearSource"); !ok {
		t.Error("custom edge pattern missing")
	}
	if _, ok := reg.Get("EnableRBAC"); !ok {
		t.Error("custom graph pattern missing")
	}
}

func TestConfiguredPlannerRuns(t *testing.T) {
	d, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := d.Registry()
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end check: a configured plan actually runs.
	g := tpcds.PurchasesFlow()
	planner := core.NewPlanner(reg, opts)
	res, err := planner.Plan(g, tpcds.Binding(g, 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alternatives) == 0 {
		t.Error("configured planner produced nothing")
	}
	for _, a := range res.Alternatives {
		for _, app := range a.Applications {
			if app.Pattern != fcp.NameAddCheckpoint && app.Pattern != fcp.NameFilterNullValues {
				t.Errorf("pattern %s outside configured palette", app.Pattern)
			}
		}
	}
}

func TestPolicyVariants(t *testing.T) {
	cases := map[string]string{
		"default":    `{}`,
		"greedy":     `{"policy": "greedy", "topK": 2}`,
		"exhaustive": `{"policy": "exhaustive"}`,
		"random":     `{"policy": "random_sample", "sampleN": 4, "seed": 3}`,
	}
	for label, doc := range cases {
		d, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := d.Options(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	d, _ := Parse([]byte(`{"policy": "magic"}`))
	if _, err := d.Options(); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
	bad := []string{
		`{"goals": {"speed": 1}}`,
		`{"dims": ["speed"]}`,
		`{"constraints": [{"characteristic": "performance"}]}`,
		`{"constraints": [{"characteristic": "magic", "minScore": 0.5}]}`,
		`{"customPatterns": [{"name": "x", "kind": "edge", "improves": "performance", "opKind": "teleport"}]}`,
		`{"customPatterns": [{"name": "x", "kind": "volume", "improves": "performance"}]}`,
	}
	for i, doc := range bad {
		d, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("doc %d should parse as JSON", i)
		}
		_, errOpts := d.Options()
		_, errReg := d.Registry()
		if errOpts == nil && errReg == nil {
			t.Errorf("doc %d should fail materialisation", i)
		}
	}
}

// TestRetiredModeKeysIgnored pins backward compatibility for documents
// written when the planner had selectable modes: the retired keys fullEval,
// rowEngine and noPrune still parse, and a document carrying them plans
// exactly like the same document without them — same options, same plan
// cache key, byte-identical result.
func TestRetiredModeKeysIgnored(t *testing.T) {
	const docBody = `"policy": "greedy", "topK": 2, "depth": 2, "sim": {"runs": 8, "defaultRows": 200},
	  "constraints": [{"characteristic": "manageability", "measure": "flow_size", "max": %d}]`
	g := tpcds.PurchasesFlow()
	bind := tpcds.Binding(g, 300, 1)
	// The flow may grow by one node, so depth-2 designs are statically
	// pruned and noPrune would have made a difference.
	base := fmt.Sprintf(docBody, g.Len()+1)
	plan := func(t *testing.T, doc string) (core.Options, string, []byte) {
		t.Helper()
		d, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		opts, err := d.Options()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := core.PlanKey(g, bind, opts)
		if !ok {
			t.Fatal("document options are not cacheable")
		}
		res, err := core.NewPlanner(nil, opts).Plan(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := core.SnapshotResult(res)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StaticPruned == 0 {
			t.Error("nothing statically pruned; the noPrune case is vacuous")
		}
		return opts, key, body
	}
	wantOpts, wantKey, wantBody := plan(t, "{"+base+"}")
	for name, retired := range map[string]string{
		"fullEval":  `"fullEval": true`,
		"rowEngine": `"rowEngine": true`,
		"noPrune":   `"noPrune": true`,
		"all":       `"fullEval": true, "rowEngine": true, "noPrune": true`,
	} {
		t.Run(name, func(t *testing.T) {
			opts, key, body := plan(t, "{"+base+", "+retired+"}")
			if !sameOptions(opts, wantOpts) {
				t.Errorf("options differ:\n got %+v\nwant %+v", opts, wantOpts)
			}
			if key != wantKey {
				t.Error("plan cache key differs")
			}
			if !bytes.Equal(body, wantBody) {
				t.Error("result JSON differs")
			}
		})
	}
}

// sameOptions compares options field by field, constraints by name (they
// hold predicate closures).
func sameOptions(a, b core.Options) bool {
	if len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for i := range a.Constraints {
		if a.Constraints[i].Name() != b.Constraints[i].Name() {
			return false
		}
	}
	a.Constraints, b.Constraints = nil, nil
	return reflect.DeepEqual(a, b)
}
