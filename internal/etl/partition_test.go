package etl_test

import (
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/policy"
	"poiesis/internal/workloads"
)

// expand applies every exhaustive-policy candidate to its own clone of each
// flow.
func expand(tb testing.TB, flows []*etl.Graph, palette []fcp.Pattern) []*etl.Graph {
	tb.Helper()
	var out []*etl.Graph
	for _, g := range flows {
		for _, c := range (policy.Exhaustive{}).Propose(g, palette) {
			clone := g.Clone()
			if _, err := c.Pattern.Apply(clone, c.Point); err != nil {
				tb.Fatalf("%s: %v", c, err)
			}
			out = append(out, clone)
		}
	}
	return out
}

// The guarantee that dedup decisions did not move when Fingerprint became
// one pass: over every alternative the exhaustive policy generates at depths
// 1 and 2 for every builtin workload, with every pattern the planner can
// deploy (ParallelizeTask's partition fan-out and merge fan-in included),
// two flows fingerprint equal exactly when the WL refinement calls them equal.
func TestFingerprintPartitionOnWorkloads(t *testing.T) {
	palette, err := fcp.DefaultRegistry().Palette()
	if err != nil {
		t.Fatal(err)
	}
	palette = append(palette, fcp.NewPushDownSelection())
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			g, _ := workloads.Get(name)
			depth1 := expand(t, []*etl.Graph{g}, palette)
			flows := append(append([]*etl.Graph{g}, depth1...), expand(t, depth1, palette)...)
			classes, err := etl.SamePartition(flows)
			if err != nil {
				t.Fatal(err)
			}
			if classes == len(flows) {
				t.Errorf("all %d flows are distinct, so the check saw no duplicate", len(flows))
			}
		})
	}
}

// The heap topological sort and the union-find Components must agree with
// their oracles on every depth-1 and depth-2 alternative of every builtin
// workload.
func TestGraphPassOraclesOnWorkloads(t *testing.T) {
	palette, err := fcp.DefaultRegistry().Palette()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			g, _ := workloads.Get(name)
			depth1 := expand(t, []*etl.Graph{g}, palette)
			flows := append(append([]*etl.Graph{g}, depth1...), expand(t, depth1, palette)...)
			for i, f := range flows {
				if err := etl.CheckGraphPassOracles(f); err != nil {
					t.Fatalf("flow %d: %v", i, err)
				}
			}
		})
	}
}

var fingerprintSink string

// BenchmarkFingerprintFig4Candidates times what the planner pays per
// generated alternative before dedup at Fig. 4 scale: clone, apply and
// Fingerprint over every depth-1 exhaustive candidate of tpcds-sales, with
// the planner's default palette.
func BenchmarkFingerprintFig4Candidates(b *testing.B) {
	g, _ := workloads.Get("tpcds-sales")
	palette, err := fcp.DefaultRegistry().Palette()
	if err != nil {
		b.Fatal(err)
	}
	cands := policy.Exhaustive{}.Propose(g, palette)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			clone := g.Clone()
			if _, err := c.Pattern.Apply(clone, c.Point); err != nil {
				b.Fatal(err)
			}
			fingerprintSink = clone.Fingerprint()
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates")
}
