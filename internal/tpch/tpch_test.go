package tpch

import (
	"slices"
	"testing"

	"poiesis/internal/sim"
)

func TestRevenueETLValid(t *testing.T) {
	g := RevenueETL()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid flow: %v\n%s", err, g)
	}
	if g.Len() < 15 {
		t.Errorf("revenue ETL has only %d operators", g.Len())
	}
	if len(g.Sources()) != 4 {
		t.Errorf("sources = %d", len(g.Sources()))
	}
	if len(g.Sinks()) != 3 {
		t.Errorf("sinks = %d", len(g.Sinks()))
	}
	// The join has two inputs.
	if g.InDegree("join_ord") != 2 {
		t.Errorf("join in-degree = %d", g.InDegree("join_ord"))
	}
}

func TestRevenueETLExecutes(t *testing.T) {
	g := RevenueETL()
	e := sim.NewEngine(sim.DefaultConfig())
	p, err := e.Execute(g, Binding(g, 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded == 0 {
		t.Error("no rows loaded")
	}
	// The recent-shipment filter and inner join must reduce cardinality
	// below the lineitem scale.
	if p.RowsIn[slices.Index(p.Order, "drv_revenue")] >= 2000 {
		t.Errorf("derive input = %d, expected filtered+joined subset", p.RowsIn[slices.Index(p.Order, "drv_revenue")])
	}
	// Aggregates produce small outputs.
	if p.RowsOut[slices.Index(p.Order, "agg_segment")] > 25 {
		t.Errorf("segment aggregate rows = %d", p.RowsOut[slices.Index(p.Order, "agg_segment")])
	}
}

func TestPricingSummaryETLValid(t *testing.T) {
	g := PricingSummaryETL()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid flow: %v\n%s", err, g)
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 2 {
		t.Errorf("topology: %d sources, %d sinks", len(g.Sources()), len(g.Sinks()))
	}
}

func TestPricingSummaryExecutes(t *testing.T) {
	g := PricingSummaryETL()
	e := sim.NewEngine(sim.DefaultConfig())
	p, err := e.Execute(g, Binding(g, 2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsLoaded == 0 {
		t.Error("no rows loaded")
	}
	// The Q1 aggregate groups by return flag: the 20-word vocabulary plus a
	// few corrupted (injected-error) variants.
	if p.RowsOut[slices.Index(p.Order, "agg_flag")] > 45 {
		t.Errorf("aggregate rows = %d", p.RowsOut[slices.Index(p.Order, "agg_flag")])
	}
	// The blocking sort materialises the filtered stream.
	if p.MemRowsPeak == 0 {
		t.Error("sort should register memory peak")
	}
}

func TestBindingProportions(t *testing.T) {
	g := RevenueETL()
	b := Binding(g, 8000, 1)
	if b["src_orders"].Rows != 2000 {
		t.Errorf("orders rows = %d", b["src_orders"].Rows)
	}
	if b["src_customer"].Rows != 800 {
		t.Errorf("customer rows = %d", b["src_customer"].Rows)
	}
	if b["src_part"].Rows != 1600 {
		t.Errorf("part rows = %d", b["src_part"].Rows)
	}
	// Degenerate scale still yields at least one row.
	b2 := Binding(g, 3, 1)
	for id, spec := range b2 {
		if spec.Rows < 1 {
			t.Errorf("%s rows = %d", id, spec.Rows)
		}
	}
}
