package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// The profile and trace comparisons of TestColumnarRowEquivalence see only
// counts, so a kernel that put a cell in the wrong row or column would pass
// them. The checks here compare every node's logical output rows with the
// row oracle's, cell by cell. Late-materialized kernels make this the check
// that matters: a join's output keeps the left input's columns and
// selection vector and scatters the right side's columns into the left
// side's physical rows, and derive and surrogate add columns indexed by
// physical row under their input's selection.

// kernelSpec describes a small flow that chains the late-materialized
// kernels: a left extract, optionally filtered and routed through a hash
// split (whose second branch loads directly), joined or looked up against a
// right extract, then derived and optionally given a surrogate key.
type kernelSpec struct {
	leftRows, rightRows int
	selectivity         float64 // the left filter's; 1 leaves no filter
	hashSplit           bool
	lookup              bool
	derived             etl.AttrType
	surrogate           bool
	defects             data.Defects
	seed                uint64
}

// kernelFlow builds the flow and binding a kernelSpec describes.
func kernelFlow(spec kernelSpec) (*etl.Graph, Binding) {
	left := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "qty", Type: etl.TypeInt},
		etl.Attribute{Name: "price", Type: etl.TypeFloat, Nullable: true},
	)
	right := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "label", Type: etl.TypeString, Nullable: true},
		etl.Attribute{Name: "weight", Type: etl.TypeFloat, Nullable: true},
		etl.Attribute{Name: "day", Type: etl.TypeDate},
	)
	g := etl.New("kernels")
	g.MustAddNode(etl.NewNode("l", "L", etl.OpExtract, left))
	g.MustAddNode(etl.NewNode("r", "R", etl.OpExtract, right))
	prev := etl.NodeID("l")
	if spec.selectivity < 1 {
		f := etl.NewNode("flt", "filter", etl.OpFilter, left)
		f.Cost.Selectivity = spec.selectivity
		g.MustAddNode(f)
		g.MustAddEdge(prev, "flt")
		prev = "flt"
	}
	if spec.hashSplit {
		spl := etl.NewNode("spl", "split", etl.OpSplit, left)
		spl.SetParam("route", "hash")
		g.MustAddNode(spl)
		g.MustAddNode(etl.NewNode("ld_side", "Side", etl.OpLoad, etl.Schema{}))
		g.MustAddEdge(prev, "spl")
		prev = "spl"
	}
	kind := etl.OpJoin
	if spec.lookup {
		kind = etl.OpLookup
	}
	joined := left.Union(right)
	g.MustAddNode(etl.NewNode("j", "join", kind, joined))
	g.MustAddEdge(prev, "j") // the left input comes first
	g.MustAddEdge("r", "j")
	if spec.hashSplit {
		g.MustAddEdge("spl", "ld_side")
	}
	derived := joined.With(etl.Attribute{Name: "d", Type: spec.derived})
	g.MustAddNode(etl.NewNode("drv", "derive", etl.OpDerive, derived))
	g.MustAddEdge("j", "drv")
	prev = "drv"
	if spec.surrogate {
		g.MustAddNode(etl.NewNode("srg", "surrogate", etl.OpSurrogate,
			derived.With(etl.Attribute{Name: "sk", Type: etl.TypeInt, Key: true})))
		g.MustAddEdge(prev, "srg")
		prev = "srg"
	}
	g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	g.MustAddEdge(prev, "ld")
	return g, Binding{
		"l": {Name: "L", Schema: left, Rows: spec.leftRows, Seed: spec.seed, Defects: spec.defects},
		"r": {Name: "R", Schema: right, Rows: spec.rightRows, Seed: spec.seed + 1, Defects: spec.defects},
	}
}

// kernelFixtures covers the late-materialized kernels on selected inputs: a
// filter or a hash split upstream of a join or a lookup with unmatched
// rows, followed by a derive of every type and a surrogate.
func kernelFixtures() []columnFixture {
	dirty := data.Defects{NullRate: 0.2, DupRate: 0.1, ErrorRate: 0.1}
	var out []columnFixture
	for i, spec := range []kernelSpec{
		{leftRows: 900, rightRows: 400, selectivity: 0.6, derived: etl.TypeFloat, surrogate: true},
		{leftRows: 900, rightRows: 400, selectivity: 0.6, lookup: true, derived: etl.TypeString, surrogate: true},
		{leftRows: 700, rightRows: 500, selectivity: 1, hashSplit: true, lookup: true, derived: etl.TypeInt, surrogate: true},
		{leftRows: 700, rightRows: 500, selectivity: 0.3, hashSplit: true, derived: etl.TypeBool},
		{leftRows: 300, rightRows: 900, selectivity: 0.8, hashSplit: true, lookup: true, derived: etl.TypeDate, surrogate: true},
		{leftRows: 500, rightRows: 0, selectivity: 0.5, lookup: true, derived: etl.TypeFloat, surrogate: true},
	} {
		spec.defects, spec.seed = dirty, uint64(10+i)
		g, bind := kernelFlow(spec)
		name := fmt.Sprintf("kernels-%d-%s", i, g.Node("j").Kind)
		out = append(out, columnFixture{name, g, bind})
	}
	return out
}

// sameCell compares two cells exactly: floats by bits, NULL only with NULL.
func sameCell(a, b etl.Value) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

// cellOfRow is the row's cell j; cells beyond the row's width are NULL.
func cellOfRow(r etl.Row, j int) etl.Value {
	if j < len(r) {
		return r[j]
	}
	return nil
}

// matchRowOracle executes g on the engine (through cache, which may be
// nil) and on the row oracle, and compares every node's logical output rows
// cell by cell.
func matchRowOracle(e *Engine, g *etl.Graph, bind Binding, cache *EvalCache) error {
	_, want, err := e.rowExecuteOutputs(g, bind)
	if err != nil {
		return err
	}
	_, got, err := e.execute(g, bind, cache, nil)
	if err != nil {
		return err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	ar := &batchArena{}
	for i, id := range order {
		wantRows := rowFlatten(want[i])
		gotRows := flatten(got[i], ar).toRows()
		if len(gotRows) != len(wantRows) {
			return fmt.Errorf("node %s: %d rows, oracle %d", id, len(gotRows), len(wantRows))
		}
		for r := range wantRows {
			for j := range max(len(wantRows[r]), len(gotRows[r])) {
				if a, b := cellOfRow(gotRows[r], j), cellOfRow(wantRows[r], j); !sameCell(a, b) {
					return fmt.Errorf("node %s row %d column %d: %#v, oracle %#v", id, r, j, a, b)
				}
			}
		}
	}
	return nil
}

// TestKernelOutputsMatchRowOracle compares every node's output rows with the
// row oracle's, cell by cell, on the column fixtures and the kernel flows:
// once uncached, once through a cache the first pass filled, and once more
// served from that cache.
func TestKernelOutputsMatchRowOracle(t *testing.T) {
	cfg := DefaultConfig()
	fixtures := append(columnFixtures(t), kernelFixtures()...)
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := NewEngine(cfg)
			cache := NewEvalCache()
			for pass, c := range []*EvalCache{nil, cache, cache} {
				if err := matchRowOracle(e, fx.g, fx.bind, c); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
			}
		})
	}
}

// The kernel fixtures must exercise what they are there for: a selection
// vector on every join's output and, for lookups against a smaller right
// side (keys are row ordinals), unmatched rows that read NULL in the
// right side's columns.
func TestKernelFixturesCoverSelectionsAndMisses(t *testing.T) {
	e := NewEngine(DefaultConfig())
	for _, fx := range kernelFixtures() {
		_, outs, err := e.execute(fx.g, fx.bind, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		order, _ := fx.g.TopoOrder()
		j := outs[slices.Index(order, "j")]
		if len(j) != 1 || j[0] == nil || j[0].sel == nil {
			t.Errorf("%s: the join output carries no selection vector", fx.name)
			continue
		}
		if fx.g.Node("j").Kind != etl.OpLookup || fx.bind["r"].Rows >= fx.bind["l"].Rows {
			continue
		}
		// The right side's last column, day, is never NULL at the source.
		b := j[0]
		misses := 0
		for i := range b.len() {
			if b.cols[len(b.cols)-1].nullAt(b.phys(i)) {
				misses++
			}
		}
		if misses == 0 {
			t.Errorf("%s: no lookup row reads NULL enrichment", fx.name)
		}
	}
}

// FuzzKernelsMatchRowOracle builds small kernel flows from the fuzz input —
// filter selectivity, hash split, join or lookup, derived type, surrogate,
// row counts and defect rates — and checks them cell by cell against the
// row oracle, uncached and through a cache.
func FuzzKernelsMatchRowOracle(f *testing.F) {
	f.Add(uint8(60), uint8(90), uint8(40), uint8(0b1011), uint8(2), uint8(20), uint8(10), uint8(10))
	f.Add(uint8(100), uint8(30), uint8(0), uint8(0b0110), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(120), uint8(0b1111), uint8(4), uint8(90), uint8(50), uint8(90))
	types := []etl.AttrType{etl.TypeInt, etl.TypeFloat, etl.TypeString, etl.TypeBool, etl.TypeDate}
	f.Fuzz(func(t *testing.T, sel, lrows, rrows, flags, typ, nulls, dups, errs uint8) {
		spec := kernelSpec{
			leftRows:    int(lrows),
			rightRows:   int(rrows),
			selectivity: float64(sel%101) / 100,
			hashSplit:   flags&1 != 0,
			lookup:      flags&2 != 0,
			surrogate:   flags&4 != 0,
			derived:     types[int(typ)%len(types)],
			defects: data.Defects{
				NullRate:  float64(nulls%101) / 100,
				DupRate:   float64(dups%101) / 100,
				ErrorRate: float64(errs%101) / 100,
			},
			seed: uint64(flags >> 3),
		}
		g, bind := kernelFlow(spec)
		cfg := DefaultConfig()
		cfg.Runs = 1
		e := NewEngine(cfg)
		cache := NewEvalCache()
		for pass, c := range []*EvalCache{nil, cache, cache} {
			if err := matchRowOracle(e, g, bind, c); err != nil {
				t.Fatalf("pass %d, %+v: %v", pass, spec, err)
			}
		}
	})
}
