package etl

import "fmt"

// Builder offers a fluent way to assemble flows in fixtures, importers and
// examples. Errors are accumulated and surfaced by Build, so call sites stay
// linear.
type Builder struct {
	g    *Graph
	last NodeID
	err  error
	n    int
}

// NewBuilder starts a builder for a flow with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: New(name)}
}

func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// nextID generates builder-local node IDs n1, n2, ...
func (b *Builder) nextID() NodeID {
	b.n++
	return NodeID(fmt.Sprintf("n%d", b.n))
}

// Add inserts a node without wiring it and makes it the cursor node.
func (b *Builder) Add(n *Node) *Builder {
	if b.err != nil {
		return b
	}
	if n.ID == "" {
		n.ID = b.nextID()
	}
	if err := b.g.AddNode(n); err != nil {
		return b.fail(err)
	}
	b.last = n.ID
	return b
}

// Op adds a node of the given kind, wired after the cursor node (if any),
// and moves the cursor. The out schema defaults to the cursor's schema.
func (b *Builder) Op(id NodeID, name string, kind OpKind, out Schema) *Builder {
	if b.err != nil {
		return b
	}
	if id == "" {
		id = b.nextID()
	}
	if out.IsEmpty() && b.last != "" {
		out = b.g.Node(b.last).Out.Clone()
	}
	n := NewNode(id, name, kind, out)
	prev := b.last
	if err := b.g.AddNode(n); err != nil {
		return b.fail(err)
	}
	b.last = n.ID
	if prev != "" && !kind.IsSource() {
		if err := b.g.AddEdge(prev, id); err != nil {
			return b.fail(err)
		}
	}
	return b
}

// Edge adds an explicit edge without moving the cursor.
func (b *Builder) Edge(from, to NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.g.AddEdge(from, to); err != nil {
		return b.fail(err)
	}
	return b
}

// Graph returns the graph under construction (may be incomplete).
func (b *Builder) Graph() *Graph { return b.g }

// Build validates and returns the flow.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build that panics on error, for fixture flows.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
