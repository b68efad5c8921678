package fcp

import (
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/measures"
)

// diamondFlow is src -> a -> {n, c} -> b -> snk: n and c share their
// predecessor a and their successor b.
func diamondFlow() *etl.Graph {
	s := etl.NewSchema(etl.Attribute{Name: "id", Type: etl.TypeInt, Key: true})
	g := etl.New("diamond")
	for _, n := range []struct {
		id   etl.NodeID
		kind etl.OpKind
	}{{"src", etl.OpExtract}, {"a", etl.OpFilter}, {"n", etl.OpDerive}, {"c", etl.OpDerive}, {"b", etl.OpJoin}, {"snk", etl.OpLoad}} {
		g.MustAddNode(etl.NewNode(n.id, string(n.id), n.kind, s))
	}
	for _, e := range [][2]etl.NodeID{{"src", "a"}, {"a", "n"}, {"a", "c"}, {"n", "b"}, {"c", "b"}, {"b", "snk"}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// userPattern is a user Pattern implementation wrapping a builtin.
type userPattern struct{ Pattern }

func TestCommute(t *testing.T) {
	g := diamondFlow()
	fnv, dedup, ckpt := NewFilterNullValues(), NewRemoveDuplicateEntries(), NewAddCheckpoint(2)
	xchk, par := NewCrosscheckSources(), NewParallelizeTask(3)
	tune, upgrade := NewTuneRecurrenceFrequency(2), NewUpgradeResources(2, 0.6)
	customEdge, err := NewCustomPattern(CustomSpec{Name: "Encrypt", Kind: EdgePoint, Improves: measures.Manageability, OpKind: etl.OpEncrypt})
	if err != nil {
		t.Fatal(err)
	}
	customGraph, err := NewCustomPattern(CustomSpec{Name: "RBAC", Kind: GraphPoint, Improves: measures.Manageability, Params: map[string]string{"rbac": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	// A user Pattern registered under a builtin's name.
	reg := NewRegistry()
	reg.MustRegister(userPattern{NewFilterNullValues()})
	user, _ := reg.Get(NameFilterNullValues)

	for _, tc := range []struct {
		name    string
		a       Pattern
		pa      Point
		b       Pattern
		pb      Point
		commute bool
	}{
		{"inserts a->n and n->b", fnv, AtEdge("a", "n"), ckpt, AtEdge("n", "b"), true},
		{"inserts src->a and b->snk", dedup, AtEdge("src", "a"), xchk, AtEdge("b", "snk"), true},
		{"inserts share a's successor list", fnv, AtEdge("a", "n"), dedup, AtEdge("a", "c"), false},
		{"inserts share b's predecessor list", fnv, AtEdge("n", "b"), ckpt, AtEdge("c", "b"), false},
		{"same insert twice", fnv, AtEdge("a", "n"), fnv, AtEdge("a", "n"), false},
		{"parallelize n, insert into n", par, AtNode("n"), fnv, AtEdge("a", "n"), false},
		{"parallelize n, insert out of n", par, AtNode("n"), ckpt, AtEdge("n", "b"), false},
		{"parallelize n, insert on a sibling edge from a", par, AtNode("n"), ckpt, AtEdge("a", "c"), false},
		{"parallelize n, insert on a sibling edge into b", par, AtNode("n"), ckpt, AtEdge("c", "b"), false},
		{"parallelize n, insert into its predecessor", par, AtNode("n"), fnv, AtEdge("src", "a"), true},
		{"parallelize n, insert out of its successor", par, AtNode("n"), fnv, AtEdge("b", "snk"), true},
		{"parallelize siblings n and c", par, AtNode("n"), par, AtNode("c"), false},
		{"graph point and insert", tune, AtGraph(), fnv, AtEdge("src", "a"), false},
		{"graph point and parallelize", upgrade, AtGraph(), par, AtNode("n"), false},
		{"two graph points", tune, AtGraph(), upgrade, AtGraph(), false},
		{"custom graph pattern", customGraph, AtGraph(), fnv, AtEdge("b", "snk"), false},
		{"custom edge pattern", customEdge, AtEdge("src", "a"), fnv, AtEdge("b", "snk"), true},
		{"user pattern under a builtin name", user, AtEdge("src", "a"), ckpt, AtEdge("b", "snk"), false},
	} {
		if got := Commute(g, tc.a, tc.pa, tc.b, tc.pb); got != tc.commute {
			t.Errorf("%s: Commute = %v, want %v", tc.name, got, tc.commute)
		}
		if got := Commute(g, tc.b, tc.pb, tc.a, tc.pa); got != tc.commute {
			t.Errorf("%s, swapped: Commute = %v, want %v", tc.name, got, tc.commute)
		}
	}
}
