package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// profilesEqual compares two profiles field by field (including the dense
// per-node slices, which are aligned with Order).
func profilesEqual(t *testing.T, full, delta *Profile) {
	t.Helper()
	if !reflect.DeepEqual(full, delta) {
		t.Errorf("delta profile differs from full evaluation:\nfull:  %+v\ndelta: %+v", full, delta)
	}
}

// mutations applies a spread of pattern-like edits covering insertion near
// the source, insertion near the sink, a structural replace, and a
// cost-only change.
func deltaMutations(t *testing.T, base *etl.Graph) map[string]*etl.Graph {
	t.Helper()
	out := map[string]*etl.Graph{}

	nearSrc := base.Clone()
	n1 := etl.NewNode(nearSrc.FreshID("fnv"), "filter_null_values", etl.OpFilterNull,
		nearSrc.Node("src").Out.WithoutNullability())
	if err := nearSrc.InsertOnEdge("src", "flt", n1); err != nil {
		t.Fatal(err)
	}
	out["insert-near-source"] = nearSrc

	nearSink := base.Clone()
	n2 := etl.NewNode(nearSink.FreshID("sp"), "persist", etl.OpCheckpoint, nearSink.Node("drv").Out)
	if err := nearSink.InsertOnEdge("drv", "ld", n2); err != nil {
		t.Fatal(err)
	}
	out["insert-near-sink"] = nearSink

	costOnly := base.Clone()
	costOnly.MutableNode("drv").Cost.PerTuple *= 0.5
	costOnly.MutableNode("drv").Cost.Startup *= 0.5
	out["cost-only"] = costOnly

	sel := base.Clone()
	sel.MutableNode("flt").Cost.Selectivity = 0.42
	out["selectivity"] = sel

	return out
}

// TestDeltaExecuteEquivalence is the engine-level oracle: for a family of
// mutated flows evaluated through one shared cache, every delta profile must
// be byte-identical to an independent full execution.
func TestDeltaExecuteEquivalence(t *testing.T) {
	base := simpleFlow(t)
	bind := binding(base, 1500, data.Defects{NullRate: 0.05, DupRate: 0.02, ErrorRate: 0.03})
	e := NewEngine(DefaultConfig())
	cache := NewEvalCache()

	graphs := deltaMutations(t, base)
	graphs["base"] = base

	// Seed the cache with the base flow, as the planner does.
	if _, err := e.ExecuteDeltaStats(base, bind, cache, nil); err != nil {
		t.Fatal(err)
	}
	for name, g := range graphs {
		full, err := e.Execute(g, bind)
		if err != nil {
			t.Fatalf("%s: full: %v", name, err)
		}
		delta, err := e.ExecuteDeltaStats(g, bind, cache, nil)
		if err != nil {
			t.Fatalf("%s: delta: %v", name, err)
		}
		profilesEqual(t, full, delta)
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("shared-prefix evaluation produced no cache hits")
	}
	// Cost-only changes must share the entire row simulation with the base
	// flow: evaluating the cost-only variant again misses nothing.
	h0, m0 := cache.Stats()
	if _, err := e.ExecuteDeltaStats(graphs["cost-only"], bind, cache, nil); err != nil {
		t.Fatal(err)
	}
	h1, m1 := cache.Stats()
	if m1 != m0 {
		t.Errorf("cost-only re-evaluation missed the cache %d times", m1-m0)
	}
	if h1-h0 != int64(base.Len()) {
		t.Errorf("cost-only re-evaluation hit %d cones, want %d", h1-h0, base.Len())
	}
}

// TestDeltaEvaluateEquivalence covers the full Evaluate path (profile +
// Monte-Carlo batch) and multi-sink / split routing shapes.
func TestDeltaEvaluateEquivalence(t *testing.T) {
	s := purchasesSchema()
	g := etl.New("split_two_sinks")
	g.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	spl := etl.NewNode("spl", "route", etl.OpSplit, s)
	spl.SetParam("route", "hash")
	g.MustAddNode(spl)
	g.MustAddNode(etl.NewNode("d1", "d1", etl.OpDerive, s))
	g.MustAddNode(etl.NewNode("d2", "d2", etl.OpDerive, s))
	g.MustAddNode(etl.NewNode("ld1", "DW1", etl.OpLoad, etl.Schema{}))
	g.MustAddNode(etl.NewNode("ld2", "DW2", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge("src", "spl")
	g.MustAddEdge("spl", "d1")
	g.MustAddEdge("spl", "d2")
	g.MustAddEdge("d1", "ld1")
	g.MustAddEdge("d2", "ld2")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	bind := binding(g, 900, data.Defects{NullRate: 0.1})
	e := NewEngine(DefaultConfig())
	cache := NewEvalCache()
	if _, _, err := e.EvaluateDeltaStats(g, bind, cache, nil); err != nil {
		t.Fatal(err)
	}

	// Mutate one branch; the other branch and the source stay cached.
	g2 := g.Clone()
	cp := etl.NewNode(g2.FreshID("sp"), "persist", etl.OpCheckpoint, s)
	if err := g2.InsertOnEdge("d1", "ld1", cp); err != nil {
		t.Fatal(err)
	}
	pFull, bFull, err := e.Evaluate(g2, bind)
	if err != nil {
		t.Fatal(err)
	}
	pDelta, bDelta, err := e.EvaluateDeltaStats(g2, bind, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, pFull, pDelta)
	if !reflect.DeepEqual(bFull, bDelta) {
		t.Error("delta trace batch differs from full evaluation")
	}
}

// TestEvalCacheConcurrent stresses one shared cache from many goroutines
// evaluating overlapping flows; run with -race in CI.
func TestEvalCacheConcurrent(t *testing.T) {
	base := simpleFlow(t)
	bind := binding(base, 400, data.Defects{NullRate: 0.05})
	e := NewEngine(DefaultConfig())
	cache := NewEvalCache()

	variants := []*etl.Graph{base}
	for i := 0; i < 6; i++ {
		c := base.Clone()
		n := etl.NewNode(c.FreshID("sp"), fmt.Sprintf("persist%d", i), etl.OpCheckpoint, c.Node("flt").Out)
		edge := []string{"src", "flt"}
		if i%2 == 1 {
			edge = []string{"drv", "ld"}
		}
		if err := c.InsertOnEdge(etl.NodeID(edge[0]), etl.NodeID(edge[1]), n); err != nil {
			t.Fatal(err)
		}
		variants = append(variants, c)
	}
	want := make([]*Profile, len(variants))
	for i, g := range variants {
		p, err := e.Execute(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				g := variants[(w+rep)%len(variants)]
				p, err := e.ExecuteDeltaStats(g, bind, cache, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(p, want[(w+rep)%len(variants)]) {
					errs <- fmt.Errorf("worker %d rep %d: delta profile mismatch", w, rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
