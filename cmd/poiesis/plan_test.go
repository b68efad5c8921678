package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"poiesis"
)

// TestPlanPrintsStaticPruned runs `plan` with a configuration whose Max
// bound on the flow size makes the planner drop designs before evaluation,
// and checks the printed stats line accounts for them.
func TestPlanPrintsStaticPruned(t *testing.T) {
	g, err := loadFlow("tpcds-purchases")
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"policy": "greedy", "topK": 2, "depth": 2, "sim": {"runs": 8, "defaultRows": 200},
	  "constraints": [{"characteristic": "manageability", "measure": "flow_size", "max": %d}]}`, g.Len()+1)
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := cmdPlan([]string{"-in", "tpcds-purchases", "-config", path, "-scale", "200", "-bars=false"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(\d+) statically pruned`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("stats line has no statically pruned count:\n%s", out.String())
	}
	printed, _ := strconv.Atoi(m[1])

	cfg, err := poiesis.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := poiesis.PlannerFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.Plan(g, poiesis.AutoBinding(g, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StaticPruned == 0 {
		t.Fatal("the configuration prunes nothing; the check is vacuous")
	}
	if printed != res.Stats.StaticPruned {
		t.Errorf("printed %d statically pruned, Result.Stats.StaticPruned = %d", printed, res.Stats.StaticPruned)
	}
}
