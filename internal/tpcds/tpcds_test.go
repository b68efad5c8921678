package tpcds

import (
	"slices"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/sim"
)

func TestPurchasesFlowValid(t *testing.T) {
	g := PurchasesFlow()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid flow: %v\n%s", err, g)
	}
	// Fig. 2 topology: one source, two loads, a split with two branches.
	if len(g.Sources()) != 1 {
		t.Errorf("sources = %d", len(g.Sources()))
	}
	if len(g.Sinks()) != 2 {
		t.Errorf("sinks = %d", len(g.Sinks()))
	}
	if g.OutDegree("split_req") != 2 {
		t.Errorf("split fan-out = %d", g.OutDegree("split_req"))
	}
	// The predicate of Fig. 2 is configured.
	if p := g.Node("flt_current").Param("predicate"); p == "" {
		t.Error("filter predicate missing")
	}
	// Derive is the dominant task.
	max := 0.0
	var maxID etl.NodeID
	for _, n := range g.Nodes() {
		if n.Cost.PerTuple > max {
			max, maxID = n.Cost.PerTuple, n.ID
		}
	}
	if maxID != "derive_values" {
		t.Errorf("dominant op = %s", maxID)
	}
}

func TestSalesETLValid(t *testing.T) {
	g := SalesETL()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid flow: %v\n%s", err, g)
	}
	// "tens of operators, extracting data from multiple sources"
	if g.Len() < 20 {
		t.Errorf("sales ETL has only %d operators", g.Len())
	}
	if len(g.Sources()) < 3 {
		t.Errorf("sales ETL has only %d sources", len(g.Sources()))
	}
	if len(g.Sinks()) != 3 {
		t.Errorf("sinks = %d", len(g.Sinks()))
	}
}

func TestInventoryETLValid(t *testing.T) {
	g := InventoryETL()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid flow: %v\n%s", err, g)
	}
	if g.Len() < 15 {
		t.Errorf("inventory ETL has only %d operators", g.Len())
	}
	if len(g.Sources()) != 3 {
		t.Errorf("sources = %d", len(g.Sources()))
	}
	// Union node fuses the two feeds.
	if g.InDegree("union_feeds") != 2 {
		t.Errorf("union in-degree = %d", g.InDegree("union_feeds"))
	}
	if g.MergeCount() == 0 {
		t.Error("inventory flow should count merge elements")
	}
}

func TestInventoryETLExecutes(t *testing.T) {
	g := InventoryETL()
	e := sim.NewEngine(sim.DefaultConfig())
	p, err := e.Execute(g, Binding(g, 1200, 9))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded == 0 {
		t.Error("no rows loaded")
	}
	// Union doubles the feed rows before dedup trims them.
	if p.RowsIn[slices.Index(p.Order, "dedup_snap")] <= p.RowsIn[slices.Index(p.Order, "conv_store")] {
		t.Errorf("union did not combine feeds: %d vs %d",
			p.RowsIn[slices.Index(p.Order, "dedup_snap")], p.RowsIn[slices.Index(p.Order, "conv_store")])
	}
}

func TestBindingCoversSources(t *testing.T) {
	g := SalesETL()
	b := Binding(g, 2000, 1)
	for _, src := range g.Sources() {
		spec, ok := b[src.ID]
		if !ok {
			t.Errorf("source %s unbound", src.ID)
			continue
		}
		if spec.Rows <= 0 {
			t.Errorf("source %s rows = %d", src.ID, spec.Rows)
		}
		if !spec.Schema.Equal(src.Out) {
			t.Errorf("source %s schema mismatch", src.ID)
		}
	}
	// Reference sources are smaller than the fact source.
	if b["src_item"].Rows >= b["src_sales"].Rows {
		t.Error("item source should be smaller than sales")
	}
}

func TestFlowsExecute(t *testing.T) {
	e := sim.NewEngine(sim.DefaultConfig())
	for _, tc := range []struct {
		g     *etl.Graph
		scale int
	}{
		{PurchasesFlow(), 1500},
		{SalesETL(), 1500},
	} {
		p, err := e.Execute(tc.g, Binding(tc.g, tc.scale, 3))
		if err != nil {
			t.Fatalf("%s: %v", tc.g.Name, err)
		}
		if p.RowsLoaded == 0 {
			t.Errorf("%s loaded no rows", tc.g.Name)
		}
		if p.FirstPassMs <= 0 {
			t.Errorf("%s has no makespan", tc.g.Name)
		}
	}
}

func TestBindingDeterministic(t *testing.T) {
	g := PurchasesFlow()
	e := sim.NewEngine(sim.DefaultConfig())
	p1, err := e.Execute(g, Binding(g, 1000, 7))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Execute(g, Binding(g, 1000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if p1.RowsLoaded != p2.RowsLoaded || p1.OutNullCells != p2.OutNullCells {
		t.Error("binding not deterministic")
	}
	p3, err := e.Execute(g, Binding(g, 1000, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p1.OutNullCells == p3.OutNullCells && p1.OutErrRows == p3.OutErrRows && p1.RowsLoaded == p3.RowsLoaded {
		t.Error("different seeds gave identical defect profile (suspicious)")
	}
}
