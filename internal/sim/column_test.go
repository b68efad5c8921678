package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// columnFixture is one (flow, binding) pair of the columnar-vs-row oracle
// suite. The set covers every operator kernel: filter, filter-null, dedup,
// crosscheck, derive, project, surrogate, join, lookup, aggregate, partition,
// hash- and copy-split, checkpoint, sort and union.
type columnFixture struct {
	name string
	g    *etl.Graph
	bind Binding
}

func columnFixtures(t *testing.T) []columnFixture {
	t.Helper()
	dirty := data.Defects{NullRate: 0.12, DupRate: 0.15, ErrorRate: 0.08}
	var out []columnFixture

	base := simpleFlow(t)
	out = append(out, columnFixture{"simple", base, binding(base, 600, data.Defects{})})
	out = append(out, columnFixture{"simple-dirty", base, binding(base, 600, dirty)})
	for name, g := range deltaMutations(t, base) {
		out = append(out, columnFixture{"mut-" + name, g, binding(g, 600, dirty)})
	}

	s := purchasesSchema()
	clean := etl.NewBuilder("cleaning").
		Op("src", "S", etl.OpExtract, s).
		Op("fnv", "filter_null_values", etl.OpFilterNull, s.WithoutNullability()).
		Op("ddp", "dedup", etl.OpDedup, s).
		Op("xck", "crosscheck", etl.OpCrosscheck, s).
		Op("agg", "aggregate", etl.OpAggregate, s).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	out = append(out, columnFixture{"cleaning", clean, binding(clean, 700, dirty)})

	proj := etl.NewBuilder("shape").
		Op("src", "S", etl.OpExtract, s).
		Op("prj", "project", etl.OpProject, s.Project("item_id", "price")).
		Op("srg", "surrogate", etl.OpSurrogate,
			s.Project("item_id", "price").With(etl.Attribute{Name: "sk", Type: etl.TypeInt, Key: true})).
		Op("srt", "sort", etl.OpSort, s.Project("item_id", "price")).
		Op("ld", "DW", etl.OpLoad, etl.Schema{}).
		MustBuild()
	out = append(out, columnFixture{"project-surrogate", proj, binding(proj, 500, dirty)})

	hashsplit := etl.New("hashsplit")
	hashsplit.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	spl := etl.NewNode("spl", "split", etl.OpSplit, s)
	spl.SetParam("route", "hash")
	hashsplit.MustAddNode(spl)
	hashsplit.MustAddNode(etl.NewNode("ddp", "dedup", etl.OpDedup, s))
	hashsplit.MustAddNode(etl.NewNode("ld1", "A", etl.OpLoad, etl.Schema{}))
	hashsplit.MustAddNode(etl.NewNode("ld2", "B", etl.OpLoad, etl.Schema{}))
	hashsplit.MustAddEdge("src", "spl")
	hashsplit.MustAddEdge("spl", "ddp")
	hashsplit.MustAddEdge("ddp", "ld1")
	hashsplit.MustAddEdge("spl", "ld2")
	out = append(out, columnFixture{"hash-split", hashsplit, binding(hashsplit, 900, dirty)})

	part := etl.New("partition")
	part.MustAddNode(etl.NewNode("src", "S", etl.OpExtract, s))
	part.MustAddNode(etl.NewNode("prt", "partition", etl.OpPartition, s))
	part.MustAddNode(etl.NewNode("d1", "derive1", etl.OpDerive, s.With(etl.Attribute{Name: "t1", Type: etl.TypeString})))
	part.MustAddNode(etl.NewNode("d2", "derive2", etl.OpDerive, s.With(etl.Attribute{Name: "t2", Type: etl.TypeBool})))
	part.MustAddNode(etl.NewNode("mrg", "merge", etl.OpMerge, s))
	part.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
	part.MustAddEdge("src", "prt")
	part.MustAddEdge("prt", "d1")
	part.MustAddEdge("prt", "d2")
	part.MustAddEdge("d1", "mrg")
	part.MustAddEdge("d2", "mrg")
	part.MustAddEdge("mrg", "ld")
	out = append(out, columnFixture{"partition-merge", part, binding(part, 800, dirty)})

	left := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "qty", Type: etl.TypeInt},
	)
	right := etl.NewSchema(
		etl.Attribute{Name: "item_id", Type: etl.TypeInt, Key: true},
		etl.Attribute{Name: "label", Type: etl.TypeString},
	)
	for _, kind := range []etl.OpKind{etl.OpJoin, etl.OpLookup} {
		g := etl.New("join-" + kind.String())
		g.MustAddNode(etl.NewNode("l", "L", etl.OpExtract, left))
		g.MustAddNode(etl.NewNode("r", "R", etl.OpExtract, right))
		g.MustAddNode(etl.NewNode("j", "join", kind, left.Union(right)))
		g.MustAddNode(etl.NewNode("ld", "DW", etl.OpLoad, etl.Schema{}))
		g.MustAddEdge("l", "j")
		g.MustAddEdge("r", "j")
		g.MustAddEdge("j", "ld")
		out = append(out, columnFixture{g.Name, g, Binding{
			"l": {Name: "L", Schema: left, Rows: 900, Seed: 5, Defects: dirty},
			"r": {Name: "R", Schema: right, Rows: 400, Seed: 6, Defects: dirty},
		}})
	}
	return out
}

// TestColumnarRowEquivalence is the engine-level oracle: for every fixture
// flow, the columnar engine's profile and trace batch must be byte-identical
// to the row oracle's.
func TestColumnarRowEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 16
	for _, fx := range columnFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			colP, colB, err := NewEngine(cfg).Evaluate(fx.g, fx.bind)
			if err != nil {
				t.Fatal(err)
			}
			rowP, rowB, err := NewEngine(cfg).rowEvaluate(fx.g, fx.bind)
			if err != nil {
				t.Fatal(err)
			}
			profilesEqual(t, rowP, colP)
			if !reflect.DeepEqual(rowB, colB) {
				t.Error("trace batches differ between the columnar engine and the row oracle")
			}
		})
	}
}

// TestColumnarDeltaEquivalence exercises delta splicing with columnar cone
// records: mutated flows evaluated through one shared cache must match both a
// full columnar run and the row oracle.
func TestColumnarDeltaEquivalence(t *testing.T) {
	base := simpleFlow(t)
	bind := binding(base, 500, data.Defects{NullRate: 0.1, DupRate: 0.1, ErrorRate: 0.05})
	cfg := DefaultConfig()
	e := NewEngine(cfg)
	cache := NewEvalCache()
	if _, err := e.ExecuteDeltaStats(base, bind, cache, nil); err != nil {
		t.Fatal(err)
	}
	for name, g := range deltaMutations(t, base) {
		delta, err := e.ExecuteDeltaStats(g, bind, cache, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := e.Execute(g, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := e.rowExecute(g, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		profilesEqual(t, full, delta)
		profilesEqual(t, oracle, delta)
	}
}

// TestColumnarSharedCacheRace runs concurrent delta evaluations of flow
// variants against one shared cache and checks each against the row oracle
// (run with -race).
func TestColumnarSharedCacheRace(t *testing.T) {
	base := simpleFlow(t)
	bind := binding(base, 300, data.Defects{NullRate: 0.1, DupRate: 0.1, ErrorRate: 0.05})
	cfg := DefaultConfig()
	cfg.Runs = 8
	variants := []*etl.Graph{base}
	for _, g := range deltaMutations(t, base) {
		variants = append(variants, g)
	}
	want := make([]*Profile, len(variants))
	e := NewEngine(cfg)
	for i, g := range variants {
		p, err := e.rowExecute(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	cache := NewEvalCache()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, g := range variants {
					p, err := e.ExecuteDeltaStats(g, bind, cache, nil)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(want[i], p) {
						errs <- fmt.Errorf("worker %d: variant %d diverged from oracle", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type renderedAsX struct{}

func (renderedAsX) String() string { return "x" }

// TestHashValueTypeTags pins the hashRow fallback bugfix: values of distinct
// types that render identically must not collide, while the fast paths keep
// their historical (rendering-compatible) hashes.
func TestHashValueTypeTags(t *testing.T) {
	h := func(v etl.Value) uint64 { return hashRow(etl.Row{v}, 7) }

	if h("x") == h([]byte("x")) {
		t.Error("string and []byte with equal rendering collide")
	}
	if h("x") == h(renderedAsX{}) {
		t.Error("string and fmt.Stringer with equal rendering collide")
	}
	ts := time.Date(2015, 3, 23, 10, 0, 0, 0, time.UTC)
	if h(ts) == h(ts.Format(time.RFC3339Nano)) {
		t.Error("time.Time and its rendered string collide")
	}
	if h(ts) != h(ts) {
		t.Error("time.Time hash not deterministic")
	}
	if h(ts) == h(ts.Add(time.Nanosecond)) {
		t.Error("distinct times collide")
	}

	// Fast paths are unchanged: they hash exactly the %v rendering.
	for _, v := range []etl.Value{int64(42), 3.25, "abc", true, false} {
		want := hashBytes(hashOrdinal(7), []byte(fmt.Sprintf("%v", v)))
		if got := h(v); got != want {
			t.Errorf("fast-path hash of %v changed: got %d want %d", v, got, want)
		}
	}
}

// TestColumnarConversionRoundTrip checks the extract boundary: rows →
// columns → rows is lossless, including NULLs, short rows and mixed-type
// fallback columns.
func TestColumnarConversionRoundTrip(t *testing.T) {
	rows := []etl.Row{
		{int64(1), 2.5, "a", true},
		{int64(2), nil, "b", false},
		{nil, 7.25, nil, true},
		{int64(4), 0.0, "d"}, // short row: trailing cell reads as NULL
	}
	kinds := []etl.ValueKind{etl.KindInt64, etl.KindFloat64, etl.KindString, etl.KindBool}
	got := batchFromRows(rows, kinds).toRows()
	want := []etl.Row{
		{int64(1), 2.5, "a", true},
		{int64(2), nil, "b", false},
		{nil, 7.25, nil, true},
		{int64(4), 0.0, "d", nil},
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip:\n got %v\nwant %v", got, want)
	}

	// A column whose cells contradict the typed hint demotes to the any
	// fallback rather than corrupting values.
	mixed := []etl.Row{{int64(1)}, {"two"}, {nil}}
	back := batchFromRows(mixed, []etl.ValueKind{etl.KindInt64}).toRows()
	if !reflect.DeepEqual(mixed, back) {
		t.Errorf("mixed column round trip: got %v", back)
	}
}
