package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

func TestSampleDeterministic(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 500, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	a := e.Sample(g, p, 32)
	b := e.Sample(g, p, 32)
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("run counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].CycleTimeMs != b[i].CycleTimeMs || a[i].Succeeded != b[i].Succeeded ||
			a[i].FailureCount != b[i].FailureCount {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestSampleFailureFree(t *testing.T) {
	g := simpleFlow(t)
	for _, n := range g.Nodes() {
		n.Cost.FailureRate = 0
	}
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 500, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Sample(g, p, 50) {
		if !r.Succeeded || r.FailureCount != 0 || r.RecoveryMs != 0 {
			t.Fatalf("failure-free flow produced failures: %+v", r)
		}
		if r.CycleTimeMs != p.FirstPassMs {
			t.Error("cycle time should equal first pass without failures")
		}
	}
}

func TestSampleAlwaysFailing(t *testing.T) {
	g := simpleFlow(t)
	g.Node("drv").Cost.FailureRate = 1 // fails every attempt
	cfg := DefaultConfig()
	cfg.RetryBudget = 3
	e := NewEngine(cfg)
	p, err := e.Execute(g, binding(g, 100, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Sample(g, p, 10) {
		if r.Succeeded {
			t.Fatal("flow with p(fail)=1 op cannot succeed")
		}
		if r.RowsLoaded != 0 {
			t.Error("failed runs load no rows")
		}
	}
}

func TestCheckpointImprovesRecoveryTime(t *testing.T) {
	mk := func(withCP bool) (*etl.Graph, float64) {
		g := simpleFlow(t)
		g.Node("drv").Cost.PerTuple = 0.05
		g.Node("drv").Cost.FailureRate = 0.4 // flaky expensive op
		if withCP {
			cp := etl.NewNode(g.FreshID("cp"), "savepoint", etl.OpCheckpoint, g.Node("flt").Out)
			if err := g.InsertOnEdge("flt", "drv", cp); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine(DefaultConfig())
		p, err := e.Execute(g, binding(g, 3000, data.Defects{}))
		if err != nil {
			t.Fatal(err)
		}
		runs := e.Sample(g, p, 200)
		sum := 0.0
		for _, r := range runs {
			sum += r.RecoveryMs
		}
		return g, sum / float64(len(runs))
	}
	_, recBase := mk(false)
	gCP, recCP := mk(true)
	if recCP >= recBase {
		t.Errorf("checkpoint did not reduce mean recovery: %f vs %f", recCP, recBase)
	}
	if gCP.GeneratedCount() != 1 {
		t.Error("fixture should have one generated node")
	}
}

func TestCheckpointsUsedCounted(t *testing.T) {
	g := simpleFlow(t)
	g.Node("drv").Cost.FailureRate = 0.9
	cp := etl.NewNode(g.FreshID("cp"), "savepoint", etl.OpCheckpoint, g.Node("flt").Out)
	if err := g.InsertOnEdge("flt", "drv", cp); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 100, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range e.Sample(g, p, 100) {
		total += r.CheckpointsUsed
	}
	if total == 0 {
		t.Error("recoveries from savepoint never counted")
	}
}

func TestEvaluateProducesBatch(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, batch, err := e.Evaluate(g, binding(g, 500, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || batch == nil {
		t.Fatal("nil results")
	}
	if len(batch.Runs) != DefaultConfig().Runs {
		t.Errorf("runs = %d", len(batch.Runs))
	}
	if batch.SourceUpdatesPerHour != 2 {
		t.Errorf("updates/hour = %f", batch.SourceUpdatesPerHour)
	}
	if batch.PeriodMinutes != 60 {
		t.Errorf("default period = %f", batch.PeriodMinutes)
	}
	if batch.SuccessRate() <= 0 {
		t.Error("healthy flow should mostly succeed")
	}
	if batch.MeanCycleTime() < p.FirstPassMs {
		t.Error("mean cycle time below first pass")
	}
}

func TestPeriodMinutesParam(t *testing.T) {
	g := simpleFlow(t)
	g.Node("src").SetParam("schedule.period_minutes", "15")
	if got := periodMinutes(g); got != 15 {
		t.Errorf("period = %f", got)
	}
	g.Node("src").SetParam("schedule.period_minutes", "7.5")
	if got := periodMinutes(g); got != 7.5 {
		t.Errorf("period = %f", got)
	}
	g.Node("src").SetParam("schedule.period_minutes", "bogus")
	if got := periodMinutes(g); got != 60 {
		t.Errorf("period with bad param = %f", got)
	}
}

func TestParseFloat(t *testing.T) {
	cases := map[string]float64{
		"15": 15, "7.5": 7.5, "0.25": 0.25, "": 0, "x": 0, "1.2.3": 0,
	}
	for in, want := range cases {
		if got := parseFloat(in); got != want {
			t.Errorf("parseFloat(%q) = %f, want %f", in, got, want)
		}
	}
}

// Property: cycle time always equals first pass plus recovery, and failed
// runs never load rows.
func TestSampleInvariants(t *testing.T) {
	g := simpleFlow(t)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 200, data.Defects{}))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(frPct uint8, runs uint8) bool {
		g2 := g.Clone()
		g2.MutableNode("drv").Cost.FailureRate = float64(frPct%90) / 100
		p2, err := e.Execute(g2, binding(g2, 200, data.Defects{}))
		if err != nil {
			return false
		}
		for _, r := range e.Sample(g2, p2, int(runs%40)+1) {
			if r.CycleTimeMs != p2.FirstPassMs+r.RecoveryMs {
				return false
			}
			if !r.Succeeded && r.RowsLoaded != 0 {
				return false
			}
			if r.RecoveryMs < 0 {
				return false
			}
		}
		_ = p
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// chainFlow is extract -> n no-ops -> load. Only the extract can fail, so
// every chain length samples the same failures.
func chainFlow(t testing.TB, n int) *etl.Graph {
	g := etl.New("chain")
	s := purchasesSchema()
	prev := etl.NodeID("src")
	g.MustAddNode(etl.NewNode(prev, "src", etl.OpExtract, s))
	for i := 0; i < n; i++ {
		id := etl.NodeID(fmt.Sprintf("op%d", i))
		g.MustAddNode(etl.NewNode(id, string(id), etl.OpNoop, s))
		g.MustAddEdge(prev, id)
		prev = id
	}
	g.MustAddNode(etl.NewNode("ld", "ld", etl.OpLoad, s))
	g.MustAddEdge(prev, "ld")
	for _, nd := range g.Nodes() {
		nd.Cost.FailureRate = 0
	}
	g.Node("src").Cost.FailureRate = 0.5
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// Sample's allocations must not grow with the flow: runs are sparse, so a
// longer chain costs one more failure rate per node, not a stats record per
// node per run.
func TestSampleAllocsFlatInNodeCount(t *testing.T) {
	e := NewEngine(DefaultConfig())
	measure := func(n int) (allocs float64, bytes int64) {
		g := chainFlow(t, n)
		p, err := e.Execute(g, binding(g, 50, data.Defects{}))
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() { e.Sample(g, p, 32) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			e.Sample(g, p, 32)
		}
		runtime.ReadMemStats(&after)
		return allocs, int64(after.TotalAlloc-before.TotalAlloc) / 50
	}
	smallAllocs, smallBytes := measure(8)
	bigAllocs, bigBytes := measure(256)
	if smallAllocs != bigAllocs {
		t.Errorf("Sample allocates %v times on 10 nodes, %v on 258", smallAllocs, bigAllocs)
	}
	// One float64 failure rate per node, with room for size-class rounding.
	if grow := bigBytes - smallBytes; grow > 16*248 {
		t.Errorf("Sample allocates %d bytes more on 258 nodes than on 10", grow)
	}
}

func BenchmarkExecute(b *testing.B) {
	g := simpleFlow(b)
	e := NewEngine(DefaultConfig())
	bind := binding(g, 5000, data.Defects{NullRate: 0.05, DupRate: 0.02, ErrorRate: 0.03})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(g, bind); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSample64(b *testing.B) {
	g := simpleFlow(b)
	e := NewEngine(DefaultConfig())
	p, err := e.Execute(g, binding(g, 5000, data.Defects{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Sample(g, p, 64)
	}
}
