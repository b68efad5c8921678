package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var regen = flag.Bool("regen", false, "regenerate testdata/golden.json by planning every fixed input directly")

// TestRegenGolden rewrites testdata/golden.json when run with -regen:
//
//	go test -run TestRegenGolden -regen
//
// Without the flag it is skipped: every run of fig4-plan and serve-shared
// already checks its skylines against the committed digests.
func TestRegenGolden(t *testing.T) {
	if !*regen {
		t.Skip("run with -regen to rewrite testdata/golden.json")
	}
	g, err := computeGolden()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileMatchesMetricTable keeps BENCHMARK.json and the metric
// table in step: the same workloads, and exactly the metrics reported on
// every workload, with the same units, directions and bounds.
func TestBenchmarkFileMatchesMetricTable(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	listed := map[string]bool{}
	for _, m := range bf.EndToEnd {
		listed[m.Name] = true
		d, ok := metricIndex(m.Name)
		if !ok || d.layer || !d.listed || d.unit != m.Unit || better(d) != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end metric %s: BENCHMARK.json says %s/%s/%g, the table %+v", m.Name, m.Unit, m.Better, m.Bound, d)
		}
	}
	for _, m := range bf.PerLayer {
		listed[m.Name] = true
		d, ok := metricIndex(m.Name)
		if !ok || !d.layer || !d.listed || d.unit != m.Unit || better(d) != m.Better {
			t.Errorf("per-layer metric %s: BENCHMARK.json says %s/%s, the table %+v", m.Name, m.Unit, m.Better, d)
		}
	}
	for _, d := range metricDefs {
		if d.listed && !listed[d.name] {
			t.Errorf("metric %s is reported on every workload but not listed in BENCHMARK.json", d.name)
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same arrival schedule and
// inputs, another seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, spec := range []serveSpec{serveExplore, serveShared, clusterShared} {
		a := schedule(spec, 1, 2*time.Second, 20*time.Second)
		b := schedule(spec, 1, 2*time.Second, 20*time.Second)
		c := schedule(spec, 2, 2*time.Second, 20*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different schedules", spec.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", spec.name)
		}
	}
	if !reflect.DeepEqual(fig4Order(1), fig4Order(1)) || reflect.DeepEqual(fig4Order(1), fig4Order(2)) {
		t.Error("fig4-plan binding-seed order does not follow the seed")
	}
}

// TestWorkloadsEmitMetrics runs every workload briefly, traced, and checks
// that it passes its correctness checks and reports every metric of
// BENCHMARK.json with its unit: the end-to-end ones in the record, the
// per-layer ones on the final line as well.
func TestWorkloadsEmitMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			out := filepath.Join(dir, w+".json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "1", "-seconds", "1", "-trace", filepath.Join(dir, "traces"), "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the summary: %v", err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("summary %+v", last)
			}
			rec, err := readRecord(out)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, m := range rec.Workloads[0].Metrics {
				got[m.Name] = m.Unit
			}
			for _, m := range bf.EndToEnd {
				if got[m.Name] != m.Unit {
					t.Errorf("end-to-end metric %s: got unit %q, want %q", m.Name, got[m.Name], m.Unit)
				}
			}
			for _, m := range bf.PerLayer {
				if got[m.Name] != m.Unit || last.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("per-layer metric %s missing or without unit %q", m.Name, m.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "traces", w+".json")); err != nil {
				t.Errorf("no Chrome trace: %v", err)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestJudge covers the comparison verdicts.
func TestJudge(t *testing.T) {
	lat, _ := metricIndex("skyline_ms_p50")
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster in every pair", base, shift(-5), "better"},
		{"slightly slower", base, shift(10), "within bound"},
		{"much slower", base, shift(30), "worse"},
		{"too few pairs to claim a gain", base[:5], shift(-5)[:5], "within bound"},
		{"noisy base", []float64{50, 150, 80, 120, 100}, []float64{100, 101, 99, 100, 100}, "unresolved"},
	} {
		if got := judge(lat, c.base, c.head).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
