// Benchmark harness reproducing every table and figure of the POIESIS paper
// (EDBT 2015), plus the demo-walkthrough claims (P1-P3), the §2.2 space-
// growth claim (S1) and design ablations (A1-A3). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints (once) the rows/series the corresponding figure
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
package poiesis_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"text/tabwriter"

	"poiesis"
	"poiesis/internal/core"
	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
	"poiesis/internal/tpcds"
	"poiesis/internal/tpch"
	"poiesis/internal/viz"
)

// benchSim keeps per-alternative evaluation cheap enough to explore
// thousand-design spaces inside a benchmark iteration.
func benchSim(rows int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = rows
	cfg.Runs = 32
	return cfg
}

var printOnce sync.Map

// once prints a figure's series a single time per benchmark, however many
// iterations the harness runs.
func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// -----------------------------------------------------------------------
// F1 — Fig. 1 (table): example quality measures for ETL processes.

func BenchmarkFig1MeasureEstimation(b *testing.B) {
	type workload struct {
		name string
		g    *etl.Graph
		bind sim.Binding
	}
	flows := []workload{
		{"tpcds_purchases", tpcds.PurchasesFlow(), nil},
		{"tpch_revenue", tpch.RevenueETL(), nil},
	}
	flows[0].bind = tpcds.Binding(flows[0].g, 2000, 1)
	flows[1].bind = tpch.Binding(flows[1].g, 2000, 1)

	engine := sim.NewEngine(benchSim(2000))
	est := measures.NewEstimator(measures.Config{})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range flows {
			p, batch, err := engine.Evaluate(w.g, w.bind)
			if err != nil {
				b.Fatal(err)
			}
			r := est.Estimate(w.g, p, batch)
			if i == 0 {
				r := r
				w := w
				once("fig1:"+w.name, func() { printFig1(w.name, r) })
			}
		}
	}
}

func printFig1(name string, r *measures.Report) {
	rows := [][]string{}
	add := func(char measures.Characteristic, m string, unit string) {
		v, _ := r.MeasureValue(char, m)
		rows = append(rows, []string{string(char), m, fmt.Sprintf("%.4g", v), unit})
	}
	// The exact measure set of Fig. 1.
	add(measures.Performance, measures.MCycleTime, "ms")
	add(measures.Performance, measures.MLatencyPerTup, "ms/tuple")
	add(measures.DataQuality, measures.MFreshness, "h (request time - last update)")
	add(measures.DataQuality, measures.MCurrency, "1/(1 - age*update freq)")
	add(measures.Manageability, measures.MLongestPath, "ops (longest path)")
	add(measures.Manageability, measures.MCoupling, "edges/node (coupling)")
	add(measures.Manageability, measures.MMergeCount, "ops (# merge elements)")
	fmt.Printf("\n[Fig.1] quality measures — %s\n%s\n", name,
		tabulate([]string{"characteristic", "measure", "value", "unit"}, rows))
}

// tabulate aligns the header and rows into columns.
func tabulate(headers []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(headers, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// -----------------------------------------------------------------------
// F2a — Fig. 2a: performance goal => horizontal partition + parallel derive.

func BenchmarkFig2aPerformanceRewrite(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("degree=%d", k), func(b *testing.B) {
			initial := tpcds.PurchasesFlow()
			bind := tpcds.Binding(initial, 4000, 1)
			engine := sim.NewEngine(benchSim(4000))
			p0, b0, err := engine.Evaluate(initial, bind)
			if err != nil {
				b.Fatal(err)
			}
			pat := fcp.NewParallelizeTask(k)

			var cyc1 float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := initial.Clone()
				if _, err := pat.Apply(g, fcp.AtNode("derive_values")); err != nil {
					b.Fatal(err)
				}
				p1, b1, err := engine.Evaluate(g, bind)
				if err != nil {
					b.Fatal(err)
				}
				_ = p1
				cyc1 = b1.MeanCycleTime()
			}
			b.StopTimer()
			cyc0 := b0.MeanCycleTime()
			b.ReportMetric(cyc0/cyc1, "speedup")
			_ = p0
			once(fmt.Sprintf("fig2a:%d", k), func() {
				fmt.Printf("[Fig.2a] ParallelizeTask degree=%d: cycle time %.1f ms -> %.1f ms (speedup %.2fx)\n",
					k, cyc0, cyc1, cyc0/cyc1)
			})
		})
	}
}

// -----------------------------------------------------------------------
// F2b — Fig. 2b: reliability goal => savepoints around the costly derive.

func BenchmarkFig2bReliabilityRewrite(b *testing.B) {
	// Failures are injected downstream of the expensive derive (the load):
	// the savepoint after the process-intensive task is exactly what avoids
	// "the repetition of process-intensive tasks in case of a recovery".
	for _, fr := range []float64{0.05, 0.15, 0.30} {
		fr := fr
		b.Run(fmt.Sprintf("failure=%.2f", fr), func(b *testing.B) {
			initial := tpcds.PurchasesFlow()
			initial.Node("ld_p3").Cost.FailureRate = fr
			bind := tpcds.Binding(initial, 4000, 1)
			engine := sim.NewEngine(benchSim(4000))
			_, b0, err := engine.Evaluate(initial, bind)
			if err != nil {
				b.Fatal(err)
			}
			pat := fcp.NewAddCheckpoint(2)

			var rec1, within1 float64
			deadline := 1.5 * b0.MeanCycleTime()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := initial.Clone()
				pts := fcp.RankedPoints(pat, g)
				if len(pts) == 0 {
					b.Fatal("no checkpoint points")
				}
				if _, err := pat.Apply(g, pts[0]); err != nil {
					b.Fatal(err)
				}
				_, b1, err := engine.Evaluate(g, bind)
				if err != nil {
					b.Fatal(err)
				}
				rec1 = b1.MeanRecoveryTime()
				within1 = b1.WithinDeadlineRate(deadline)
			}
			b.StopTimer()
			rec0 := b0.MeanRecoveryTime()
			within0 := b0.WithinDeadlineRate(deadline)
			b.ReportMetric(rec0/rec1, "recovery_reduction")
			once(fmt.Sprintf("fig2b:%f", fr), func() {
				fmt.Printf("[Fig.2b] AddCheckpoint @ failure=%.2f: mean recovery %.1f -> %.1f ms, within-deadline %.2f -> %.2f\n",
					fr, rec0, rec1, within0, within1)
			})
		})
	}
}

// -----------------------------------------------------------------------
// F3 — Fig. 3: the Planner pipeline (generation -> application -> estimation).

func BenchmarkFig3PlannerPipeline(b *testing.B) {
	flow := tpch.RevenueETL()
	bind := tpch.Binding(flow, 1000, 1)
	b.Run("streaming", func(b *testing.B) {
		planner := core.NewPlanner(nil, core.Options{
			Policy: policy.Greedy{TopK: 2},
			Depth:  2,
			Sim:    benchSim(1000),
		})
		b.ReportAllocs()
		b.ResetTimer()
		var res *core.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = planner.Plan(flow, bind)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(res.Alternatives)), "alternatives")
		once("fig3", func() {
			fmt.Printf("[Fig.3] planner pipeline on %q: %d candidates -> %d generated -> %d evaluated -> %d skyline\n",
				flow.Name, res.Stats.CandidatesSeen, res.Stats.Generated,
				res.Stats.Evaluated, len(res.SkylineIdx))
		})
	})
}

// -----------------------------------------------------------------------
// F4 — Fig. 4: multidimensional scatter plot; thousands of alternatives,
// only the Pareto frontier presented.

func BenchmarkFig4SkylineOfAlternatives(b *testing.B) {
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, 300, 1)
	planner := core.NewPlanner(nil, core.Options{
		Policy:          policy.Exhaustive{},
		Depth:           2,
		MaxAlternatives: 4096,
		Sim:             benchSim(300),
	})
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = planner.Plan(flow, bind)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Alternatives)), "alternatives")
	b.ReportMetric(float64(len(res.SkylineIdx)), "skyline")
	once("fig4", func() {
		fmt.Printf("\n[Fig.4] %d alternative flows, skyline %d (%.1f%%)\n",
			len(res.Alternatives), len(res.SkylineIdx),
			100*float64(len(res.SkylineIdx))/float64(len(res.Alternatives)))
		fmt.Printf("%-72s %8s %8s %8s\n", "skyline design", "perf", "dq", "rel")
		for _, a := range res.Skyline() {
			v := a.Report.Vector(res.Dims)
			label := a.Label()
			if len(label) > 72 {
				label = label[:69] + "..."
			}
			fmt.Printf("%-72s %8.4f %8.4f %8.4f\n", label, v[0], v[1], v[2])
		}
	})
}

// -----------------------------------------------------------------------
// F5 — Fig. 5: relative change of measures vs the initial flow.

func BenchmarkFig5RelativeChange(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 2000, 1)
	planner := core.NewPlanner(nil, core.Options{
		Policy: policy.Greedy{TopK: 2},
		Depth:  2,
		Sim:    benchSim(2000),
	})
	res, err := planner.Plan(flow, bind)
	if err != nil {
		b.Fatal(err)
	}
	goals := policy.NewGoals(map[measures.Characteristic]float64{
		measures.Performance: 1, measures.DataQuality: 1, measures.Reliability: 1,
	})
	best := res.Best(goals)

	b.ReportAllocs()
	b.ResetTimer()
	var rel []measures.CharRelChange
	var rendered string
	for i := 0; i < b.N; i++ {
		rel = measures.Relative(best.Report, res.Initial.Report)
		rendered = viz.ASCIIBars(viz.RelativeBars(rel), map[string]bool{"*": true})
	}
	b.StopTimer()
	once("fig5", func() {
		fmt.Printf("\n[Fig.5] relative change of measures — %s vs initial\n%s", best.Label(), rendered)
	})
}

// -----------------------------------------------------------------------
// F6 — Fig. 6 (table): every palette FCP improves its related attribute.

func BenchmarkFig6PatternPalette(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	// Give the reliability axis headroom: a flaky load after the expensive
	// derive, so AddCheckpoint has failures to protect against.
	flow.Node("ld_p3").Cost.FailureRate = 0.15
	bind := tpcds.Binding(flow, 2000, 1)
	engine := sim.NewEngine(benchSim(2000))
	p0, b0, err := engine.Evaluate(flow, bind)
	if err != nil {
		b.Fatal(err)
	}
	est := measures.NewEstimator(measures.BaselineConfig(flow, p0, b0))
	base := est.Estimate(flow, p0, b0)
	reg := fcp.DefaultRegistry()

	type rowT struct {
		pattern string
		char    measures.Characteristic
		before  float64
		after   float64
	}
	var rows []rowT

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range reg.Names() {
			pat, _ := reg.Get(name)
			pts := fcp.RankedPoints(pat, flow)
			if len(pts) == 0 {
				continue
			}
			g := flow.Clone()
			if _, err := pat.Apply(g, pts[0]); err != nil {
				b.Fatal(err)
			}
			p1, b1, err := engine.Evaluate(g, bind)
			if err != nil {
				b.Fatal(err)
			}
			r := est.Estimate(g, p1, b1)
			rows = append(rows, rowT{
				pattern: name,
				char:    pat.Improves(),
				before:  base.Score(pat.Improves()),
				after:   r.Score(pat.Improves()),
			})
		}
	}
	b.StopTimer()
	once("fig6", func() {
		out := [][]string{}
		for _, r := range rows {
			verdict := "improved"
			if r.after <= r.before {
				verdict = "NOT improved"
			}
			out = append(out, []string{
				r.pattern, string(r.char),
				fmt.Sprintf("%.4f", r.before), fmt.Sprintf("%.4f", r.after), verdict,
			})
		}
		fmt.Printf("\n[Fig.6] FCP palette vs related quality attribute (best application point)\n%s\n",
			tabulate([]string{"FCP", "related attribute", "initial score", "score after", "verdict"}, out))
	})
}

// -----------------------------------------------------------------------
// P2 — different pattern subsets and policies produce different collections.

func BenchmarkP2PolicySweep(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 500, 1)
	type cfg struct {
		name    string
		palette []string
		pol     policy.Policy
	}
	cfgs := []cfg{
		{"exhaustive/full", nil, policy.Exhaustive{}},
		{"greedy2/full", nil, policy.Greedy{TopK: 2}},
		{"exhaustive/dq-only", []string{
			fcp.NameRemoveDuplicateEntries, fcp.NameFilterNullValues, fcp.NameCrosscheckSources,
		}, policy.Exhaustive{}},
		{"random8/full", nil, policy.RandomSample{N: 8, Seed: 9}},
	}
	for _, c := range cfgs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			planner := core.NewPlanner(nil, core.Options{
				Palette: c.palette,
				Policy:  c.pol,
				Depth:   2,
				Sim:     benchSim(500),
			})
			var res *core.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = planner.Plan(flow, bind)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(res.Alternatives)), "alternatives")
			once("p2:"+c.name, func() {
				fmt.Printf("[P2] policy %-22s -> %4d alternatives, %2d skyline\n",
					c.name, len(res.Alternatives), len(res.SkylineIdx))
			})
		})
	}
}

// -----------------------------------------------------------------------
// P3 — user-defined patterns extend the palette.

func BenchmarkP3CustomPattern(b *testing.B) {
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, 500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		reg := fcp.DefaultRegistry()
		custom, err := fcp.NewCustomPattern(fcp.CustomSpec{
			Name:     "EncryptInTransit",
			Kind:     fcp.EdgePoint,
			Improves: measures.Manageability,
			OpKind:   etl.OpEncrypt,
			Conditions: []fcp.Condition{
				fcp.UpstreamDistanceAtMost(1),
				fcp.NoAdjacentKind(etl.OpEncrypt),
			},
			FitnessNearSource: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Register(custom); err != nil {
			b.Fatal(err)
		}
		planner := core.NewPlanner(reg, core.Options{
			Palette: []string{"EncryptInTransit"},
			Policy:  policy.Exhaustive{},
			Depth:   1,
			Sim:     benchSim(500),
		})
		res, err = planner.Plan(flow, bind)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	once("p3", func() {
		fmt.Printf("[P3] custom pattern EncryptInTransit: %d application points became %d alternatives\n",
			len(res.Alternatives), len(res.Alternatives))
	})
}

// -----------------------------------------------------------------------
// S1 — §2.2: the analysis space grows combinatorially with graph size.

func BenchmarkS1SpaceGrowth(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			g := chainFlow(n)
			pats, err := fcp.DefaultRegistry().Palette()
			if err != nil {
				b.Fatal(err)
			}
			var points int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points = 0
				for _, pat := range pats {
					points += len(fcp.ApplicationPoints(pat, g))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(points), "application_points")
			once(fmt.Sprintf("s1:%d", n), func() {
				// Depth-2 space size ~ points^2 before dedup.
				fmt.Printf("[S1] |V|=%2d: %3d application points (depth-2 space ~ %d combinations)\n",
					n, points, points*points)
			})
		})
	}
}

// chainFlow builds extract -> n derives -> load with nullable+key schema so
// every pattern finds points.
func chainFlow(n int) *etl.Graph {
	s := etl.NewSchema(
		etl.Attribute{Name: "id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "v", Type: etl.TypeFloat},
		etl.Attribute{Name: "note", Type: etl.TypeString, Nullable: true},
	)
	bld := etl.NewBuilder(fmt.Sprintf("chain_%d", n)).
		Op("src", "S", etl.OpExtract, s)
	for i := 0; i < n; i++ {
		bld = bld.Op(etl.NodeID(fmt.Sprintf("d%d", i)), fmt.Sprintf("derive_%d", i), etl.OpDerive, s)
	}
	return bld.Op("ld", "DW", etl.OpLoad, etl.Schema{}).MustBuild()
}

// -----------------------------------------------------------------------
// A1 — skyline algorithm ablation.

func BenchmarkA1SkylineAlgorithms(b *testing.B) {
	rng := data.NewRNG(1)
	sizes := []int{1000, 10000}
	for _, n := range sizes {
		pts := make([][]float64, n)
		for i := range pts {
			x := rng.Float64()
			pts[i] = []float64{x, 1 - x + 0.05*rng.Float64(), rng.Float64()}
		}
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			if n > 1000 {
				b.Skip("naive is quadratic; skip large input")
			}
			for i := 0; i < b.N; i++ {
				skyline.Naive(pts)
			}
		})
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inc := skyline.NewIncremental()
				for j, p := range pts {
					inc.Add(j, p)
				}
				inc.Indices()
			}
		})
	}
}

// -----------------------------------------------------------------------
// A2 — sequential vs concurrent evaluation (the EC2 substitution).

func BenchmarkA2EvalWorkers(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 1500, 1)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			planner := core.NewPlanner(nil, core.Options{
				Policy:  policy.Exhaustive{},
				Depth:   1,
				Workers: w,
				Sim:     benchSim(1500),
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := planner.Plan(flow, bind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// -----------------------------------------------------------------------
// A3 — fingerprint dedup ablation.

func BenchmarkA3Dedup(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 300, 1)
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "dedup=on"
		if disable {
			name = "dedup=off"
		}
		b.Run(name, func(b *testing.B) {
			planner := core.NewPlanner(nil, core.Options{
				Policy:       policy.Exhaustive{},
				Depth:        2,
				DisableDedup: disable,
				Sim:          benchSim(300),
			})
			var res *core.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = planner.Plan(flow, bind)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(res.Alternatives)), "alternatives")
			b.ReportMetric(float64(res.Stats.Deduped), "deduped")
			once("a3:"+name, func() {
				fmt.Printf("[A3] %s: %d alternatives evaluated, %d duplicates removed\n",
					name, len(res.Alternatives), res.Stats.Deduped)
			})
		})
	}
}

// -----------------------------------------------------------------------
// A4 — pipeline-overlap model ablation: how much of the cycle time comes
// from the partial pipelining assumption of the simulator.

func BenchmarkA4PipelineOverlap(b *testing.B) {
	flow := tpch.RevenueETL()
	bind := tpch.Binding(flow, 3000, 1)
	for _, overlap := range []float64{0, 0.5, 0.9} {
		overlap := overlap
		b.Run(fmt.Sprintf("overlap=%.1f", overlap), func(b *testing.B) {
			cfg := benchSim(3000)
			cfg.PipelineOverlap = overlap
			engine := sim.NewEngine(cfg)
			var cycle float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := engine.Execute(flow, bind)
				if err != nil {
					b.Fatal(err)
				}
				cycle = p.FirstPassMs
			}
			b.StopTimer()
			b.ReportMetric(cycle, "cycle_ms")
			once(fmt.Sprintf("a4:%f", overlap), func() {
				fmt.Printf("[A4] pipeline overlap %.1f: first-pass makespan %.1f ms\n", overlap, cycle)
			})
		})
	}
}

// -----------------------------------------------------------------------
// E1 — extension: the PushDownSelection optimization pattern (beyond the
// Fig. 6 palette) moves a selective filter before an expensive derive.

func BenchmarkE1PushDownSelection(b *testing.B) {
	s := etl.NewSchema(
		etl.Attribute{Name: "id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "v", Type: etl.TypeFloat},
	)
	derived := s.With(etl.Attribute{Name: "computed", Type: etl.TypeFloat})
	initial := etl.New("late_filter")
	initial.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	drv := etl.NewNode("drv", "derive", etl.OpDerive, derived)
	drv.Cost.PerTuple = 0.05
	initial.MustAddNode(drv)
	flt := etl.NewNode("flt", "filter", etl.OpFilter, s)
	flt.Cost.Selectivity = 0.3
	initial.MustAddNode(flt)
	initial.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	initial.MustAddEdge("src", "drv")
	initial.MustAddEdge("drv", "flt")
	initial.MustAddEdge("flt", "ld")
	if err := initial.Validate(); err != nil {
		b.Fatal(err)
	}

	engine := sim.NewEngine(benchSim(4000))
	_, b0, err := engine.Evaluate(initial, nil)
	if err != nil {
		b.Fatal(err)
	}
	pat := fcp.NewPushDownSelection()

	var cyc1 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := initial.Clone()
		pts := fcp.ApplicationPoints(pat, g)
		if len(pts) != 1 {
			b.Fatalf("points = %v", pts)
		}
		if _, err := pat.Apply(g, pts[0]); err != nil {
			b.Fatal(err)
		}
		_, b1, err := engine.Evaluate(g, nil)
		if err != nil {
			b.Fatal(err)
		}
		cyc1 = b1.MeanCycleTime()
	}
	b.StopTimer()
	cyc0 := b0.MeanCycleTime()
	b.ReportMetric(cyc0/cyc1, "speedup")
	once("e1", func() {
		fmt.Printf("[E1] PushDownSelection (selectivity 0.3 past a heavy derive): cycle time %.1f -> %.1f ms (%.2fx)\n",
			cyc0, cyc1, cyc0/cyc1)
	})
}

// -----------------------------------------------------------------------
// E2 — extension: the iterative redesign loop converges ("new iteration
// cycles commence, until the user considers that the flow adequately
// satisfies quality goals").

func BenchmarkE2IterativeSession(b *testing.B) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 800, 1)
	goals := policy.NewGoals(map[measures.Characteristic]float64{
		measures.Reliability: 2, measures.DataQuality: 1, measures.Performance: 1,
	})
	var history []core.SelectionRecord
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner := core.NewPlanner(nil, core.Options{
			Policy: policy.Greedy{TopK: 2},
			Depth:  1,
			Sim:    benchSim(800),
		})
		session := core.NewSession(planner, flow, bind)
		for it := 0; it < 3; it++ {
			res, err := session.Explore()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.SkylineIdx) == 0 {
				break
			}
			bestIdx, bestU := 0, -1.0
			for j, alt := range res.Skyline() {
				if u := goals.Utility(alt.Report); u > bestU {
					bestIdx, bestU = j, u
				}
			}
			if _, err := session.Select(bestIdx); err != nil {
				b.Fatal(err)
			}
		}
		history = session.History()
	}
	b.StopTimer()
	once("e2", func() {
		fmt.Println("[E2] iterative session (reliability-weighted goals):")
		for _, rec := range history {
			fmt.Printf("  iteration %d: %-64s mean score %.4f -> %.4f\n",
				rec.Iteration, rec.Label, rec.ScoreBefore, rec.ScoreAfter)
		}
	})
}

// -----------------------------------------------------------------------
// SV1 — service path: throughput of the HTTP planning service for the hot
// case, a planning request served from the fingerprint-keyed plan cache.
// This is the steady-state cost of the REST + JSON layer per request once
// many analysts share one plan, the multi-user story of the ROADMAP.

func BenchmarkServePlan(b *testing.B) {
	benchServePlan(b, poiesis.ServerConfig{})
}

// BenchmarkServePlanNoTrace is SV1 with tracing disabled (TraceSample < 0):
// the delta against BenchmarkServePlan is the whole cost of span collection
// on the hot path, which the obs kit promises is within the ≤2% budget
// sampled and ~0 disabled.
func BenchmarkServePlanNoTrace(b *testing.B) {
	benchServePlan(b, poiesis.ServerConfig{TraceSample: -1})
}

// BenchmarkServePlanDiskStore is SV1 with the crash-safe disk session
// backend: every plan response additionally writes and fsyncs the session
// record (the cached result's snapshot and encoding are built once, on the
// first write), so the delta against BenchmarkServePlan is the
// write-through cost of durability on the hot path.
func BenchmarkServePlanDiskStore(b *testing.B) {
	backend, err := poiesis.NewDiskSessionBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	benchServePlan(b, poiesis.ServerConfig{Backend: backend})
}

func benchServePlan(b *testing.B, cfg poiesis.ServerConfig) {
	srv := poiesis.NewServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createBody := `{
		"flow": {"builtin": "tpcds-purchases"},
		"scale": 300,
		"config": {"policy": "greedy", "topK": 2, "depth": 1, "sim": {"runs": 16, "defaultRows": 300}}
	}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(createBody))
	if err != nil {
		b.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	planURL := ts.URL + "/v1/sessions/" + created.ID + "/plan"

	// Warm the cache: the first request computes, all timed ones hit.
	warm, err := http.Post(planURL, "application/json", nil)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warm plan: %d", warm.StatusCode)
	}

	var bytesRead int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(planURL, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("plan: %d", resp.StatusCode)
		}
		bytesRead += n
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(bytesRead)/float64(b.N), "respB/op")
	}
	once("sv1", func() {
		fmt.Printf("[SV1] service path: cached plan responses of %d bytes per request\n",
			bytesRead/int64(b.N))
	})
}

// -----------------------------------------------------------------------
// SV2 — cluster path: the same cached plan request issued through a replica
// that does NOT own the session, so every iteration pays the full forwarding
// hop (proxy dial/reuse, header rewrite, chunk-flushed relay) on top of SV1's
// REST + JSON cost. The delta against BenchmarkServePlan is the price of
// "talk to any replica" transparency.

func BenchmarkServePlanForwarded(b *testing.B) {
	// Two shard-aware replicas on real sockets; membership URLs must exist
	// before the servers do, so the handlers late-bind.
	var handlers [2]atomic.Pointer[poiesis.PlanServer]
	var urls [2]string
	for i := 0; i < 2; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := handlers[i].Load()
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	names := [2]string{"a", "b"}
	members := []poiesis.ClusterMember{{ID: "a", URL: urls[0]}, {ID: "b", URL: urls[1]}}
	for i := 0; i < 2; i++ {
		cl, err := poiesis.NewCluster(names[i], members)
		if err != nil {
			b.Fatal(err)
		}
		handlers[i].Store(poiesis.NewServer(poiesis.ServerConfig{Cluster: cl}))
	}

	createBody := `{
		"flow": {"builtin": "tpcds-purchases"},
		"scale": 300,
		"config": {"policy": "greedy", "topK": 2, "depth": 1, "sim": {"runs": 16, "defaultRows": 300}}
	}`
	resp, err := http.Post(urls[0]+"/v1/sessions", "application/json", strings.NewReader(createBody))
	if err != nil {
		b.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()

	// Replica a owns the session (created there); every request below goes
	// to replica b and is forwarded.
	planURL := urls[1] + "/v1/sessions/" + created.ID + "/plan"
	warm, err := http.Post(planURL, "application/json", nil)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warm forwarded plan: %d", warm.StatusCode)
	}

	var bytesRead int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(planURL, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("forwarded plan: %d", resp.StatusCode)
		}
		bytesRead += n
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(bytesRead)/float64(b.N), "respB/op")
	}
	once("sv2", func() {
		fmt.Printf("[SV2] cluster path: forwarded cached plan responses of %d bytes per request\n",
			bytesRead/int64(b.N))
	})
}

// -----------------------------------------------------------------------
// Sanity: the public facade compiles against a realistic use (kept as a
// benchmark-file test so `go test` at the root exercises the API).

func TestFacadeEndToEnd(t *testing.T) {
	flow := poiesis.TPCDSPurchases()
	planner := poiesis.NewPlanner(nil, poiesis.Options{
		Policy: poiesis.GreedyPolicy{TopK: 2},
		Depth:  1,
		Sim:    benchSim(300),
	})
	res, err := planner.Plan(flow, poiesis.TPCDSBinding(flow, 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkylineIdx) == 0 {
		t.Fatal("no skyline")
	}
	if s := poiesis.RenderScatterASCII(res, poiesis.ScatterOptions{Title: "t"}); s == "" {
		t.Error("no scatter output")
	}
	best := res.Best(poiesis.NewGoals(map[poiesis.Characteristic]float64{
		poiesis.Performance: 1,
	}))
	if s := poiesis.RenderRelativeBars(best, res, map[string]bool{"*": true}); s == "" {
		t.Error("no bars output")
	}
}
