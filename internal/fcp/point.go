// Package fcp implements Flow Component Patterns: "predefined constructs
// that improve certain quality characteristics, but do not alter [the
// flow's] main functionality" (§2.2). A pattern is internally represented
// in the same format as the process flow it is deployed on — a small ETL
// sub-flow plus binding logic — and is woven into an initial flow at a valid
// application point, which "can be either a node (i.e., an ETL flow
// operation), or an edge or the entire ETL flow graph":
// P = P_E ∪ P_V ∪ P_G.
//
// Each pattern declares conjunctive prerequisites that gate validity and a
// fitness heuristic in [0,1] that ranks placements (e.g. checkpoints after
// the most complex operations; data cleaning as close as possible to the
// source operations).
package fcp

import (
	"fmt"

	"poiesis/internal/etl"
)

// PointKind distinguishes the three application-point classes of §2.2.
type PointKind int

// The application-point classes.
const (
	NodePoint  PointKind = iota // P_V: applied on an ETL flow operation
	EdgePoint                   // P_E: applied on a transition
	GraphPoint                  // P_G: applied on the entire flow graph
)

// String names the point kind.
func (k PointKind) String() string {
	switch k {
	case NodePoint:
		return "node"
	case EdgePoint:
		return "edge"
	case GraphPoint:
		return "graph"
	default:
		return "invalid"
	}
}

// Point is one concrete application point in a flow.
type Point struct {
	Kind PointKind
	// Node is set for NodePoint.
	Node etl.NodeID
	// Edge is set for EdgePoint.
	Edge etl.Edge
}

// AtNode builds a node application point.
func AtNode(id etl.NodeID) Point { return Point{Kind: NodePoint, Node: id} }

// AtEdge builds an edge application point.
func AtEdge(from, to etl.NodeID) Point {
	return Point{Kind: EdgePoint, Edge: etl.Edge{From: from, To: to}}
}

// AtGraph builds the whole-graph application point.
func AtGraph() Point { return Point{Kind: GraphPoint} }

// String renders the point for logs and fingerprint-free comparisons.
func (p Point) String() string {
	switch p.Kind {
	case NodePoint:
		return "node:" + string(p.Node)
	case EdgePoint:
		return "edge:" + p.Edge.String()
	case GraphPoint:
		return "graph"
	default:
		return "invalid"
	}
}

// Valid reports whether the point refers to existing elements of g.
func (p Point) Valid(g *etl.Graph) bool {
	switch p.Kind {
	case NodePoint:
		return g.Node(p.Node) != nil
	case EdgePoint:
		return g.HasEdge(p.Edge.From, p.Edge.To)
	case GraphPoint:
		return true
	default:
		return false
	}
}

// UpstreamSchema returns the schema flowing into the point: the producing
// node's output schema for an edge, the node's input schema for a node, and
// the empty schema for the graph point.
func (p Point) UpstreamSchema(g *etl.Graph) etl.Schema {
	switch p.Kind {
	case EdgePoint:
		if n := g.Node(p.Edge.From); n != nil {
			return n.Out
		}
	case NodePoint:
		return g.InputSchema(p.Node)
	}
	return etl.Schema{}
}

// UpstreamDistance returns the minimum number of edges between the point and
// any source operation (0 for the graph point).
func (p Point) UpstreamDistance(g *etl.Graph) int {
	switch p.Kind {
	case EdgePoint:
		return g.UpstreamDistance(p.Edge.From) + 1
	case NodePoint:
		return g.UpstreamDistance(p.Node)
	default:
		return 0
	}
}

// Application records one pattern deployment: which pattern, where, and the
// node IDs it introduced. The Planner attaches these to each alternative so
// the user's final selection can be replayed onto the real process.
type Application struct {
	Pattern string
	Point   Point
	// Added lists the nodes the application generated.
	Added []etl.NodeID
}

// String renders "pattern@point".
func (a Application) String() string {
	return fmt.Sprintf("%s@%s", a.Pattern, a.Point)
}
