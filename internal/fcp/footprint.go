package fcp

import (
	"slices"

	"poiesis/internal/etl"
)

// footprint is what one pattern application reads and writes of a flow, as
// elements: a node's value, predecessor list or successor list. Two
// applications whose footprints do not conflict build the same flow in
// either order, so the Planner generates only one of the orders
// (partial-order reduction: Godefroid, LNCS 1032, 1996).
type footprint struct{ reads, writes []element }

type element struct {
	node etl.NodeID
	part uint8
}

const (
	nodeValue uint8 = iota
	predList
	succList
)

// footprinter is implemented by the pattern types that declare what their
// Apply touches at p (ok false: nothing bounded), validity aside. The method
// is unexported, so a user Pattern declares none, under whatever name.
type footprinter interface {
	footprint(g *etl.Graph, p Point) (f footprint, ok bool)
}

// Commute reports whether applying a at pa and b at pb on g touch disjoint
// parts of the flow: neither writes an element the other reads or writes.
// Graph points and patterns without a footprint commute with nothing. The
// caller must know that each application stays valid after the other.
func Commute(g *etl.Graph, a Pattern, pa Point, b Pattern, pb Point) bool {
	fa, okA := a.(footprinter)
	fb, okB := b.(footprinter)
	if !okA || !okB {
		return false
	}
	x, okA := fa.footprint(g, pa)
	y, okB := fb.footprint(g, pb)
	return okA && okB && !x.overwrites(y) && !y.overwrites(x)
}

// overwrites reports whether f writes an element that o reads or writes.
func (f footprint) overwrites(o footprint) bool {
	for _, w := range f.writes {
		if slices.Contains(o.reads, w) || slices.Contains(o.writes, w) {
			return true
		}
	}
	return false
}

// edgeInsert is the footprint of etl.InsertOnEdge at p: it reads the
// producer's output schema and rewrites the producer's successor list and
// the consumer's predecessor list. Added nodes are fresh.
func edgeInsert(p Point) (footprint, bool) {
	return footprint{
		reads:  []element{{p.Edge.From, nodeValue}},
		writes: []element{{p.Edge.From, succList}, {p.Edge.To, predList}},
	}, p.Kind == EdgePoint
}

func (f *filterNullValues) footprint(_ *etl.Graph, p Point) (footprint, bool)  { return edgeInsert(p) }
func (r *removeDuplicates) footprint(_ *etl.Graph, p Point) (footprint, bool)  { return edgeInsert(p) }
func (c *crosscheckSources) footprint(_ *etl.Graph, p Point) (footprint, bool) { return edgeInsert(p) }
func (a *addCheckpoint) footprint(_ *etl.Graph, p Point) (footprint, bool)     { return edgeInsert(p) }
func (c *customPattern) footprint(_ *etl.Graph, p Point) (footprint, bool)     { return edgeInsert(p) }

// footprint of ParallelizeTask at n (etl.ReplaceNode): all of n; it reads
// each predecessor's value (n's input schema) and rewires each predecessor's
// successor list and each successor's predecessor list.
func (t *parallelizeTask) footprint(g *etl.Graph, p Point) (footprint, bool) {
	f := footprint{writes: []element{{p.Node, nodeValue}, {p.Node, predList}, {p.Node, succList}}}
	for _, q := range g.Pred(p.Node) {
		f.reads = append(f.reads, element{q, nodeValue})
		f.writes = append(f.writes, element{q, succList})
	}
	for _, s := range g.Succ(p.Node) {
		f.writes = append(f.writes, element{s, predList})
	}
	return f, p.Kind == NodePoint
}
