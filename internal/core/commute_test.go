package core

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/obs"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
	"poiesis/internal/workloads"
)

// generateOnly runs the streaming generation stage alone (no evaluation) and
// returns its stats and how many candidates it skipped as commuted
// reversals.
func generateOnly(t testing.TB, reg *fcp.Registry, g *etl.Graph, opts Options) (Stats, int) {
	t.Helper()
	p := NewPlanner(reg, opts)
	palette, err := p.reg.Palette(p.opts.Palette...)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan streamItem)
	done := make(chan struct{})
	go func() {
		for range out {
		}
		close(done)
	}()
	var generated atomic.Int64
	stats, commuted, err := p.streamGenerate(context.Background(), g, palette, out, &generated, &stageClock{})
	close(out)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return stats, commuted
}

// commutePolicies are the four builtin policies, sized so that depth 3 is
// reached under the matrix's cap.
func commutePolicies() []policy.Policy {
	return []policy.Policy{
		policy.Exhaustive{MaxPerPattern: 2},
		policy.Greedy{TopK: 2},
		policy.GoalDriven{TopK: 5, Goals: policy.NewGoals(map[measures.Characteristic]float64{
			measures.DataQuality: 1, measures.Reliability: 0.5, measures.Performance: 0.2,
		})},
		policy.RandomSample{N: 8, Seed: 3},
	}
}

// TestCommutationSkipMatchesOracle checks that skipping commuted reversals
// changes nothing the planner returns: for every builtin flow × policy ×
// depth 1–3 × workers {1, 4}, the streaming planner reproduces the
// sequential oracle, which applies and fingerprints every candidate, in
// stats, labels, fingerprints, vectors and skyline. Every policy must skip
// something somewhere, or the matrix would not test the skip.
func TestCommutationSkipMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the full matrix twice")
	}
	skipped := map[string]int{}
	for _, wl := range workloads.Names() {
		flow, _ := workloads.Get(wl)
		bind := sim.AutoBinding(flow, 60, 1)
		for _, pol := range commutePolicies() {
			for depth := 1; depth <= 3; depth++ {
				opts := Options{Policy: pol, Depth: depth, MaxAlternatives: 300, Sim: deltaMatrixSim()}
				t.Run(fmt.Sprintf("%s/%s/depth=%d", wl, pol.Name(), depth), func(t *testing.T) {
					seq := planSequential(t, flow, bind, opts, oracleMode{})
					for _, workers := range []int{1, 4} {
						o := opts
						o.Workers = workers
						stream, err := NewPlanner(nil, o).Plan(flow, bind)
						if err != nil {
							t.Fatal(err)
						}
						requireEquivalent(t, stream, seq)
					}
					_, n := generateOnly(t, nil, flow, opts)
					skipped[pol.Name()] += n
				})
			}
		}
	}
	for _, pol := range commutePolicies() {
		if skipped[pol.Name()] == 0 {
			t.Errorf("%s: no candidate skipped anywhere in the matrix", pol.Name())
		}
	}
}

// TestCommutationSkipOptions covers the options that interact with the skip:
// every cap, including caps that stop generation right before a run of
// skipped candidates (each skipped slot must still meet the cap check
// first), DisableDedup (which skips nothing), and a palette mixing
// builtins, declarative custom patterns and user Patterns registered under
// builtin names.
func TestCommutationSkipOptions(t *testing.T) {
	flow := tpcds.PurchasesFlow()
	bind := tpcds.Binding(flow, 200, 1)
	base := Options{Policy: policy.Exhaustive{}, Depth: 2, Sim: deltaMatrixSim()}

	// Every cap from 1 to past the end of generation: the generation stats
	// must equal the oracle's. Cap c lands inside a run of skipped
	// candidates when every slot between the c-th and the (c+1)-th emitted
	// alternative is a skip; a few of those caps are also planned in full.
	palette, err := fcp.DefaultRegistry().Palette()
	if err != nil {
		t.Fatal(err)
	}
	var caps []int
	var prev Stats
	prevN := 0
	for c := 1; c <= 320; c++ {
		opts := withCap(base, c)
		st, n := generateOnly(t, nil, flow, opts)
		var want Stats
		generateSequential(NewPlanner(nil, opts), palette, flow, &want, false)
		if st != want {
			t.Fatalf("cap %d: generation stats %+v, oracle %+v", c, st, want)
		}
		if gap := st.Generated - prev.Generated - 1; c > 1 && gap > 0 && n-prevN == gap && len(caps) < 4 {
			caps = append(caps, c-1)
		}
		prev, prevN = st, n
	}
	if len(caps) == 0 {
		t.Fatal("no cap lands inside a run of skipped candidates")
	}
	for _, c := range caps {
		t.Run(fmt.Sprintf("cap=%d", c), func(t *testing.T) {
			opts := withCap(base, c)
			stream, err := NewPlanner(nil, opts).Plan(flow, bind)
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalent(t, stream, planSequential(t, flow, bind, opts, oracleMode{}))
			if !stream.Stats.Capped {
				t.Error("run not capped")
			}
		})
	}

	t.Run("nodedup", func(t *testing.T) {
		opts := base
		opts.Policy = policy.Greedy{TopK: 2}
		opts.DisableDedup = true
		if _, n := generateOnly(t, nil, flow, opts); n != 0 {
			t.Errorf("DisableDedup skipped %d candidates", n)
		}
		stream, err := NewPlanner(nil, opts).Plan(flow, bind)
		if err != nil {
			t.Fatal(err)
		}
		requireEquivalent(t, stream, planSequential(t, flow, bind, opts, oracleMode{}))
	})

	t.Run("custom-palette", func(t *testing.T) {
		reg := customRegistry(t)
		opts := base
		opts.Policy = policy.Exhaustive{MaxPerPattern: 2}
		opts.Depth = 3
		if _, n := generateOnly(t, reg, flow, opts); n == 0 {
			t.Error("no candidate skipped on the custom palette")
		}
		stream, err := NewPlanner(reg, opts).Plan(flow, bind)
		if err != nil {
			t.Fatal(err)
		}
		requireEquivalent(t, stream, planSequentialWith(t, reg, flow, bind, opts, oracleMode{}))
	})
}

func withCap(o Options, c int) Options {
	o.MaxAlternatives = c
	return o
}

// userPattern is a user Pattern implementation: a builtin behind another
// type, which is a non-comparable value type. It declares no footprint.
type userPattern struct {
	fcp.Pattern
	tags []string
}

// customRegistry holds user Patterns under FilterNullValues' and
// RemoveDuplicateEntries' names (a value and a pointer type), two builtins,
// and an edge-kind and a graph-kind declarative custom pattern.
func customRegistry(t *testing.T) *fcp.Registry {
	t.Helper()
	reg := fcp.NewRegistry()
	reg.MustRegister(userPattern{Pattern: fcp.NewFilterNullValues(), tags: []string{"user"}})
	reg.MustRegister(&userPattern{Pattern: fcp.NewRemoveDuplicateEntries()})
	reg.MustRegister(fcp.NewAddCheckpoint(2))
	reg.MustRegister(fcp.NewParallelizeTask(3))
	for _, spec := range []fcp.CustomSpec{
		{Name: "Encrypt", Kind: fcp.EdgePoint, Improves: measures.Manageability, OpKind: etl.OpEncrypt,
			Conditions: []fcp.Condition{fcp.NoAdjacentKind(etl.OpEncrypt)}},
		{Name: "EnableRBAC", Kind: fcp.GraphPoint, Improves: measures.Manageability,
			Params: map[string]string{"security.rbac": "1"}},
	} {
		pat, err := fcp.NewCustomPattern(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg.MustRegister(pat)
	}
	return reg
}

// TestFig4CommutedCount pins the skip on the Fig. 4 input (tpcds-sales,
// exhaustive, depth 2): the stats stay those of fingerprinting every
// candidate, and most duplicates are now found before cloning.
func TestFig4CommutedCount(t *testing.T) {
	flow, _ := workloads.Get("tpcds-sales")
	st, n := generateOnly(t, nil, flow, Options{Policy: policy.Exhaustive{}, Depth: 2, MaxAlternatives: 4096})
	if st.Generated != 4432 || st.Deduped != 2082 {
		t.Errorf("generated/deduped = %d/%d, want 4432/2082", st.Generated, st.Deduped)
	}
	if n < 1700 {
		t.Errorf("commuted = %d, want at least 1700 of the 2082 duplicates", n)
	}
}

// TestCommutedSpanAttributes checks the trace view of the skip: each
// planner.apply span counts its batch's skipped candidates, and the
// planner.plan span carries their total.
func TestCommutedSpanAttributes(t *testing.T) {
	flow := tpcds.PurchasesFlow()
	opts := Options{Policy: policy.Greedy{TopK: 2}, Depth: 2, Sim: deltaMatrixSim()}
	_, want := generateOnly(t, nil, flow, opts)
	if want == 0 {
		t.Fatal("nothing skipped; the test needs a plan with commuted reversals")
	}
	tr := obs.NewTracer("test", 1, 4)
	ctx, root := tr.StartRequest(context.Background(), "", "root")
	if _, err := NewPlanner(nil, opts).PlanContext(ctx, flow, tpcds.Binding(flow, 200, 1)); err != nil {
		t.Fatal(err)
	}
	root.End()
	trc, _ := tr.Trace(root.TraceIDString())
	if trc.Dropped > 0 {
		t.Fatalf("%d spans dropped", trc.Dropped)
	}
	batches, total := 0, -1
	for _, sp := range trc.Spans {
		for _, a := range sp.Attrs {
			if a.Key != "commuted" {
				continue
			}
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				t.Fatal(err)
			}
			switch sp.Name {
			case "planner.apply":
				batches += n
			case "planner.plan":
				total = n
			}
		}
	}
	if batches != want || total != want {
		t.Errorf("planner.apply spans count %d, planner.plan %d, generation skipped %d", batches, total, want)
	}
}
