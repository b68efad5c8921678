package etl

import (
	"fmt"
)

// InsertOnEdge interposes a linear chain of new nodes on the edge from->to,
// in the order given: from -> chain[0] -> ... -> chain[n-1] -> to. This is
// the primitive behind edge-applicable patterns (P_E): "when the
// FilterNullValues pattern is deployed on the initial ETL flow, it is
// interposed between two consecutive operations".
//
// The chain nodes must not be present in the graph yet; they are marked
// Generated. The graph is modified in place; callers that need the original
// should Clone first.
func (g *Graph) InsertOnEdge(from, to NodeID, chain ...*Node) error {
	if len(chain) == 0 {
		return fmt.Errorf("etl: InsertOnEdge with empty chain")
	}
	if !g.HasEdge(from, to) {
		return fmt.Errorf("%w: %s->%s", ErrUnknownNode, from, to)
	}
	for _, n := range chain {
		n.Generated = true
		if err := g.AddNode(n); err != nil {
			return err
		}
	}
	if err := g.RemoveEdge(from, to); err != nil {
		return err
	}
	prev := from
	for _, n := range chain {
		if err := g.AddEdge(prev, n.ID); err != nil {
			return err
		}
		prev = n.ID
	}
	return g.AddEdge(prev, to)
}

// ReplaceNode substitutes node id by a sub-flow. Every predecessor of id is
// connected to entry, every successor to exit; the replaced node is removed.
// entry and exit may be the same node. All sub-flow nodes must already be in
// the graph (added with AddNode) or be supplied via nodes.
//
// This is the primitive behind node-applicable patterns (P_V): "a valid
// application point for the ParallelizeTask pattern is a node that can be
// replaced by multiple copies of itself".
func (g *Graph) ReplaceNode(id NodeID, entry, exit NodeID, nodes ...*Node) error {
	old := g.Node(id)
	if old == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	for _, n := range nodes {
		n.Generated = true
		if err := g.AddNode(n); err != nil {
			return err
		}
	}
	if g.Node(entry) == nil {
		return fmt.Errorf("%w: entry %s", ErrUnknownNode, entry)
	}
	if g.Node(exit) == nil {
		return fmt.Errorf("%w: exit %s", ErrUnknownNode, exit)
	}
	preds := g.Pred(id)
	succs := g.Succ(id)
	if err := g.RemoveNode(id); err != nil {
		return err
	}
	for _, p := range preds {
		if err := g.AddEdge(p, entry); err != nil {
			return err
		}
	}
	for _, s := range succs {
		if err := g.AddEdge(exit, s); err != nil {
			return err
		}
	}
	return nil
}

// SwapWithPredecessor reorders a node with its single predecessor:
//
//	gp -> p -> n -> s   becomes   gp -> n -> p -> s
//
// Both n and p must have exactly one input and one output. This is the
// primitive behind selection push-down style optimization patterns: a filter
// moved before an expensive transformation reduces the rows the
// transformation processes without altering the flow's functionality.
// Callers are responsible for schema feasibility (Validate catches the
// rest).
func (g *Graph) SwapWithPredecessor(id NodeID) error {
	n, ok := g.slotOf(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if len(g.pred[n]) != 1 || len(g.succ[n]) != 1 {
		return fmt.Errorf("%w: %s must have exactly one input and one output", ErrArity, id)
	}
	p := g.pred[n][0]
	if len(g.pred[p]) != 1 || len(g.succ[p]) != 1 {
		return fmt.Errorf("%w: predecessor %s must have exactly one input and one output", ErrArity, g.nodes[p].ID)
	}
	gp, s := g.pred[p][0], g.succ[n][0]
	g.removeEdge(gp, p)
	g.removeEdge(p, n)
	g.removeEdge(n, s)
	pid := g.nodes[p].ID
	if err := g.AddEdge(g.nodes[gp].ID, id); err != nil {
		return err
	}
	if err := g.AddEdge(id, pid); err != nil {
		return err
	}
	if err := g.AddEdge(pid, g.nodes[s].ID); err != nil {
		return err
	}
	return nil
}
