package sim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
	"poiesis/internal/trace"
	"poiesis/internal/workloads"
)

// fig4Alternatives plans the Fig. 4 exploration (tpcds-sales, exhaustive,
// depth 2) at the given scale and returns the initial flow, its binding and
// the generated alternatives' flows in planning order.
func fig4Alternatives(tb testing.TB, rows, maxAlternatives int, cfg sim.Config) (*etl.Graph, sim.Binding, []*etl.Graph) {
	tb.Helper()
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, rows, 1)
	res, err := core.NewPlanner(nil, core.Options{
		Policy:          policy.Exhaustive{},
		Depth:           2,
		MaxAlternatives: maxAlternatives,
		Sim:             cfg,
	}).Plan(flow, bind)
	if err != nil {
		tb.Fatal(err)
	}
	alts := make([]*etl.Graph, 0, len(res.Alternatives))
	for i := range res.Alternatives {
		alts = append(alts, res.Alternatives[i].Graph)
	}
	return flow, bind, alts
}

func fig4Sim(rows int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DefaultRows = rows
	cfg.Runs = 32
	return cfg
}

// TestArenaScratchNeverReachesCache evaluates hundreds of Fig. 4
// alternatives back to back from several goroutines on one shared
// EvalCache, so every execution's pooled arena is recycled by the next.
// Each profile must equal a fresh, uncached Execute: a recycled temporary
// that leaked into a cached record would corrupt a later splice. Run it
// under -race as well.
func TestArenaScratchNeverReachesCache(t *testing.T) {
	cfg := fig4Sim(120)
	flow, bind, alts := fig4Alternatives(t, 120, 400, cfg)
	if len(alts) < 300 {
		t.Fatalf("only %d alternatives", len(alts))
	}
	engine := sim.NewEngine(cfg)
	cache := sim.NewEvalCache()
	if _, err := engine.ExecuteDeltaStats(flow, bind, cache, nil); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(alts))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(alts); i += workers {
				g := alts[i]
				got, err := engine.ExecuteDeltaStats(g, bind, cache, nil)
				if err != nil {
					errs <- err.Error()
					continue
				}
				want, err := sim.NewEngine(cfg).Execute(g, bind)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("alternative %d: cached profile differs from an uncached execution", i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("no alternative spliced a cached cone")
	}
}

// space is the exhaustive depth-2 alternative space of one flow.
type space struct {
	name string
	flow *etl.Graph
	bind sim.Binding
	alts []*etl.Graph
}

// fullSpaces plans the exhaustive depth-2 space of every builtin flow and
// the Fig. 4 space (2,350 alternatives) at the given scale.
func fullSpaces(t *testing.T, rows int, cfg sim.Config) []space {
	t.Helper()
	var spaces []space
	for _, name := range workloads.Names() {
		flow, _ := workloads.Get(name)
		bind := sim.AutoBinding(flow, rows, 1)
		res, err := core.NewPlanner(nil, core.Options{
			Policy:          policy.Exhaustive{},
			Depth:           2,
			MaxAlternatives: 4096,
			Sim:             cfg,
		}).Plan(flow, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp := space{name: name, flow: flow, bind: bind}
		for i := range res.Alternatives {
			sp.alts = append(sp.alts, res.Alternatives[i].Graph)
		}
		spaces = append(spaces, sp)
	}
	flow, bind, alts := fig4Alternatives(t, rows, 4096, cfg)
	if len(alts) != 2350 {
		t.Fatalf("Fig. 4 space has %d alternatives, want 2350", len(alts))
	}
	return append(spaces, space{name: "fig4", flow: flow, bind: bind, alts: alts})
}

// TestSampleMemoMatchesUnmemoized samples every alternative of every full
// space on one engine from several goroutines at once, each starting at a
// different alternative, so signatures are drawn, stored and hit
// concurrently (run with -race as well). Every memoized Sample must equal
// an unmemoized draw exactly, and the memo must hold fewer patterns than
// there are alternatives: alternatives share failure signatures.
func TestSampleMemoMatchesUnmemoized(t *testing.T) {
	const rows = 60
	cfg := fig4Sim(rows)
	type sampled struct {
		name string
		g    *etl.Graph
		p    *sim.Profile
		want []trace.Run
	}
	var all []sampled
	ref := sim.NewEngine(cfg)
	for _, sp := range fullSpaces(t, rows, cfg) {
		cache := sim.NewEvalCache()
		for i, g := range append([]*etl.Graph{sp.flow}, sp.alts...) {
			p, err := ref.ExecuteDeltaStats(g, sp.bind, cache, nil)
			if err != nil {
				t.Fatalf("%s alternative %d: %v", sp.name, i, err)
			}
			all = append(all, sampled{fmt.Sprintf("%s alternative %d", sp.name, i), g, p, ref.SampleUnmemoized(g, p, cfg.Runs)})
		}
	}
	engine := sim.NewEngine(cfg)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range all {
				a := all[(k+w*len(all)/workers)%len(all)]
				if got := engine.Sample(a.g, a.p, cfg.Runs); !reflect.DeepEqual(got, a.want) {
					errs <- a.name + ": memoized Sample differs from an unmemoized draw"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := engine.FailurePatterns(); n == 0 || n >= len(all) {
		t.Errorf("the memo holds %d failure patterns for %d alternatives", n, len(all))
	} else {
		t.Logf("%d alternatives, %d failure patterns", len(all), n)
	}
}

// TestDeltaMatchesUncachedFullSpace is the full-space differential test of
// the evaluation cache key: every alternative of an exhaustive depth-2
// exploration of every builtin flow, and all 2,350 Fig. 4 alternatives, is
// executed on one shared cache per space and must equal an uncached Execute.
// A key that missed something the data path reads would splice a record
// computed for different inputs or settings into some alternative here.
func TestDeltaMatchesUncachedFullSpace(t *testing.T) {
	const rows = 60
	cfg := fig4Sim(rows)
	spaces := fullSpaces(t, rows, cfg)
	engine := sim.NewEngine(cfg)
	total, mismatches := 0, 0
	for _, sp := range spaces {
		cache := sim.NewEvalCache()
		for i, g := range append([]*etl.Graph{sp.flow}, sp.alts...) {
			got, err := engine.ExecuteDeltaStats(g, sp.bind, cache, nil)
			if err != nil {
				t.Fatalf("%s alternative %d: %v", sp.name, i, err)
			}
			want, err := sim.NewEngine(cfg).Execute(g, sp.bind)
			if err != nil {
				t.Fatalf("%s alternative %d: %v", sp.name, i, err)
			}
			total++
			if !reflect.DeepEqual(got, want) {
				mismatches++
				if mismatches <= 10 {
					t.Errorf("%s alternative %d: cached profile differs from an uncached execution", sp.name, i)
				}
			}
		}
		if hits, _ := cache.Stats(); hits == 0 {
			t.Errorf("%s: no alternative spliced a cached node", sp.name)
		}
	}
	t.Logf("%d flows in %d spaces, %d mismatches", total, len(spaces), mismatches)
}

// TestCheckpointRunsNoKernel inserts AddCheckpoint on src_item->srt_item in
// tpcds-sales: the checkpoint repeats the item source's schema and forwards
// its rows, so on a cache warmed with the initial flow no kernel runs.
func TestCheckpointRunsNoKernel(t *testing.T) {
	cfg := fig4Sim(120)
	flow := tpcds.SalesETL()
	bind := tpcds.Binding(flow, 120, 1)
	engine := sim.NewEngine(cfg)
	cache := sim.NewEvalCache()
	if _, err := engine.ExecuteDeltaStats(flow, bind, cache, nil); err != nil {
		t.Fatal(err)
	}
	g := flow.Clone()
	if _, err := fcp.NewAddCheckpoint(1).Apply(g, fcp.AtEdge("src_item", "srt_item")); err != nil {
		t.Fatal(err)
	}
	var es sim.ExecStats
	got, err := engine.ExecuteDeltaStats(g, bind, cache, &es)
	if err != nil {
		t.Fatal(err)
	}
	if es.Executed != 0 {
		t.Errorf("the checkpointed flow ran %d kernels on a warm cache, want 0", es.Executed)
	}
	if es.ConeHits+es.Forwarded != g.Len() {
		t.Errorf("%d hits + %d forwarded, want the %d nodes", es.ConeHits, es.Forwarded, g.Len())
	}
	want, err := sim.NewEngine(cfg).Execute(g, bind)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the checkpointed flow's cached profile differs from an uncached execution")
	}
}

var profileSink *sim.Profile

// BenchmarkEvaluateFig4Alternatives times the simulator alone at Fig. 4
// scale: execute and sample every alternative of the Fig. 4 plan, without
// proposing, applying, fingerprinting or estimating. Sub-benchmark
// cache=shared evaluates them on one shared evaluation cache, as the
// planner's evaluation stage does; cache=none re-executes every flow from its
// sources, the baseline of the delta-evaluation ablation. Each collects
// ExecStats with kernel timing and reports how nodes were served and the
// kernel runs of every operation kind that ran one, per operation.
func BenchmarkEvaluateFig4Alternatives(b *testing.B) {
	cfg := fig4Sim(300)
	flow, bind, alts := fig4Alternatives(b, 300, 4096, cfg)
	flows := append([]*etl.Graph{flow}, alts...)
	engine := sim.NewEngine(cfg)
	for _, shared := range []bool{true, false} {
		name := "cache=none"
		if shared {
			name = "cache=shared"
		}
		b.Run(name, func(b *testing.B) {
			es := sim.ExecStats{Clock: time.Now}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cache *sim.EvalCache
				if shared {
					cache = sim.NewEvalCache()
				}
				for _, g := range flows {
					p, _, err := engine.EvaluateDeltaStats(g, bind, cache, &es)
					if err != nil {
						b.Fatal(err)
					}
					profileSink = p
				}
			}
			b.StopTimer()
			perOp := func(v int64, unit string) { b.ReportMetric(float64(v)/float64(b.N), unit) }
			b.ReportMetric(float64(len(alts)), "alternatives")
			perOp(int64(es.Executed), "kernels/op")
			perOp(int64(es.Forwarded), "forwarded/op")
			perOp(int64(es.ConeHits), "cone-hits/op")
			for kind, k := range es.Kernels {
				if k.Count == 0 {
					continue
				}
				name := etl.OpKind(kind).String()
				perOp(int64(k.Count), name+"-runs/op")
				perOp(k.Nanos, name+"-ns/op")
				perOp(k.RowsIn, name+"-rows-in/op")
				perOp(k.RowsOut, name+"-rows-out/op")
			}
		})
	}
}
