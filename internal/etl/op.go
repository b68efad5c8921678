package etl

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// OpKind classifies an ETL flow operation. The taxonomy follows Vassiliadis,
// Simitsis & Baikousi ("A taxonomy of ETL activities", DOLAP 2009), extended
// with the management operations POIESIS patterns introduce (checkpointing,
// crosscheck voting, partition/merge plumbing).
type OpKind int

// The operation kinds understood by the flow model, the simulator and the
// pattern prerequisites.
const (
	OpUnknown OpKind = iota

	// Row-set producers and consumers.
	OpExtract // read from a data source
	OpLoad    // write to a target

	// Row-level transformations.
	OpFilter     // keep rows satisfying a predicate
	OpFilterNull // drop rows with NULL in selected attributes (cleaning)
	OpDerive     // compute new attribute values (function application)
	OpProject    // keep a subset of attributes ("SPLIT required attributes")
	OpConvert    // type/format conversion
	OpSurrogate  // surrogate key assignment

	// Rowset-level (blocking or semi-blocking) transformations.
	OpJoin      // join two inputs
	OpLookup    // enrich against a reference input
	OpAggregate // group and aggregate
	OpSort      // order rows
	OpDedup     // remove duplicate entries (cleaning)
	OpUnion     // union of homogeneous inputs

	// Routing.
	OpSplit     // route rows to multiple outputs by predicate
	OpPartition // horizontal partition: distribute rows to k branches
	OpMerge     // merge partitioned/parallel branches back together

	// Quality / management operations added by patterns.
	OpCheckpoint // persist intermediary data to a savepoint
	OpRecovery   // extract from savepoint on restart
	OpCrosscheck // compare/vote rows against an alternative source
	OpEncrypt    // apply security configuration on the data in transit
	OpNoop       // placeholder used by tests and custom patterns
)

var opKindNames = [...]string{
	OpUnknown:    "unknown",
	OpExtract:    "extract",
	OpLoad:       "load",
	OpFilter:     "filter",
	OpFilterNull: "filter_null",
	OpDerive:     "derive",
	OpProject:    "project",
	OpConvert:    "convert",
	OpSurrogate:  "surrogate_key",
	OpJoin:       "join",
	OpLookup:     "lookup",
	OpAggregate:  "aggregate",
	OpSort:       "sort",
	OpDedup:      "dedup",
	OpUnion:      "union",
	OpSplit:      "split",
	OpPartition:  "partition",
	OpMerge:      "merge",
	OpCheckpoint: "checkpoint",
	OpRecovery:   "recovery",
	OpCrosscheck: "crosscheck",
	OpEncrypt:    "encrypt",
	OpNoop:       "noop",
}

// String returns the canonical lower-case name of the kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return "invalid"
	}
	return opKindNames[k]
}

// ParseOpKind maps a kind name back to an OpKind; unknown names yield
// OpUnknown.
func ParseOpKind(s string) OpKind {
	s = strings.ToLower(strings.TrimSpace(s))
	for k, name := range opKindNames {
		if name == s {
			return OpKind(k)
		}
	}
	return OpUnknown
}

// IsSource reports whether the kind produces rows without consuming any.
func (k OpKind) IsSource() bool { return k == OpExtract || k == OpRecovery }

// IsSink reports whether the kind consumes rows without producing any for a
// successor.
func (k OpKind) IsSink() bool { return k == OpLoad }

// IsBlocking reports whether the operation must consume its whole input
// before emitting output. Blocking operations add full materialisation
// latency on the critical path.
func (k OpKind) IsBlocking() bool {
	switch k {
	case OpAggregate, OpSort, OpDedup, OpJoin:
		return true
	}
	return false
}

// IsCleaning reports whether the operation improves data quality by removing
// or fixing defective rows. The clean-near-source heuristic binds to these.
func (k OpKind) IsCleaning() bool {
	switch k {
	case OpFilterNull, OpDedup, OpCrosscheck:
		return true
	}
	return false
}

// MaxInputs returns the maximum number of incoming edges an operation of
// this kind accepts; -1 means unbounded.
func (k OpKind) MaxInputs() int {
	switch k {
	case OpExtract, OpRecovery:
		return 0
	case OpJoin, OpLookup, OpCrosscheck:
		return 2
	case OpUnion, OpMerge:
		return -1
	default:
		return 1
	}
}

// MaxOutputs returns the maximum number of outgoing edges; -1 means
// unbounded.
func (k OpKind) MaxOutputs() int {
	switch k {
	case OpLoad:
		return 0
	case OpSplit, OpPartition:
		return -1
	case OpCheckpoint:
		return 2 // data continues + savepoint branch in Fig. 2b style flows
	default:
		return 1
	}
}

// Cost describes the cost model of one operation instance, used by the
// simulator and by the static complexity estimates. Times are abstract cost
// units (interpreted as milliseconds by the simulator).
type Cost struct {
	// Startup is paid once per run (connection setup, plan compilation).
	Startup float64
	// PerTuple is paid for every input tuple, divided by Parallelism.
	PerTuple float64
	// Selectivity is the expected output/input row ratio (1 = pass-through).
	Selectivity float64
	// FailureRate is the probability that one run of this operation fails
	// (per run, not per tuple).
	FailureRate float64
	// MemPerTuple models the working-set footprint of blocking operations.
	MemPerTuple float64
}

// DefaultCost returns a reasonable default cost model for the kind. Builders
// and importers start from these and override per instance.
func DefaultCost(k OpKind) Cost {
	c := Cost{Startup: 1, PerTuple: 0.001, Selectivity: 1, FailureRate: 0.002}
	switch k {
	case OpExtract:
		c.Startup, c.PerTuple, c.FailureRate = 5, 0.002, 0.01
	case OpRecovery:
		c.Startup, c.PerTuple, c.FailureRate = 2, 0.001, 0.002
	case OpLoad:
		c.Startup, c.PerTuple, c.FailureRate = 5, 0.004, 0.008
	case OpFilter, OpFilterNull:
		c.PerTuple, c.Selectivity = 0.0008, 0.9
	case OpDerive:
		c.PerTuple = 0.006
	case OpProject, OpConvert:
		c.PerTuple = 0.0006
	case OpSurrogate:
		c.PerTuple = 0.0012
	case OpJoin:
		c.PerTuple, c.MemPerTuple, c.FailureRate = 0.005, 1, 0.004
	case OpLookup:
		c.PerTuple, c.MemPerTuple = 0.003, 0.5
	case OpAggregate:
		c.PerTuple, c.Selectivity, c.MemPerTuple = 0.004, 0.2, 1
	case OpSort:
		c.PerTuple, c.MemPerTuple = 0.004, 1
	case OpDedup:
		c.PerTuple, c.Selectivity, c.MemPerTuple = 0.003, 0.97, 1
	case OpUnion, OpMerge:
		c.PerTuple = 0.0004
	case OpSplit, OpPartition:
		c.PerTuple = 0.0005
	case OpCheckpoint:
		c.Startup, c.PerTuple, c.FailureRate = 3, 0.002, 0.001
	case OpCrosscheck:
		c.PerTuple, c.MemPerTuple, c.Selectivity = 0.005, 1, 0.98
	case OpEncrypt:
		c.PerTuple = 0.002
	case OpNoop:
		c.Startup, c.PerTuple = 0, 0
	}
	return c
}

// NodeID identifies a node inside one Graph. IDs are unique per graph and
// survive cloning, which lets patterns refer to application points across
// copies.
type NodeID string

// Node is one ETL flow operation: the vertex set V of the process graph.
//
// A node memoizes the hash of its canonical description the first time a
// fingerprint or cone key needs it, and copy-on-write clones share that memo
// along with the node. Once a node belongs to a graph that has been
// fingerprinted, edit its fields only through Graph.MutableNode, which
// unshares the node or drops the memo; the graph-level fingerprint cache has
// the same rule.
type Node struct {
	ID   NodeID
	Name string
	Kind OpKind

	// Out is the output schema of the operation. Input schemata are implied
	// by the predecessors' output schemata.
	Out Schema

	// Params holds operation-specific configuration (predicates, group-by
	// attributes, target tables...). Keys are sorted when fingerprinting so
	// the map is safe to mutate.
	Params map[string]string

	// Cost is the instance cost model.
	Cost Cost

	// Parallelism is the degree of intra-operation parallelism (>=1). The
	// ParallelizeTask pattern raises it on the cloned branches.
	Parallelism int

	// Generated marks nodes that were added by a pattern application rather
	// than present in the imported flow.
	Generated bool

	// PatternName records which pattern generated the node, when Generated.
	PatternName string

	// dig memoizes digest(). Atomic because evaluation workers fingerprint
	// clones that share this node concurrently; they all store equal values.
	dig atomic.Pointer[hash128]
}

// NewNode builds a node of the given kind with default cost model and
// parallelism 1.
func NewNode(id NodeID, name string, kind OpKind, out Schema) *Node {
	return &Node{
		ID:          id,
		Name:        name,
		Kind:        kind,
		Out:         out,
		Params:      map[string]string{},
		Cost:        DefaultCost(kind),
		Parallelism: 1,
	}
}

// Clone returns a deep copy of the node. The copy starts without a digest
// memo, so callers may edit it freely before adding it to a graph, as
// ParallelizeTask does when it renames its branch copies.
func (n *Node) Clone() *Node {
	c := &Node{
		ID:          n.ID,
		Name:        n.Name,
		Kind:        n.Kind,
		Out:         n.Out.Clone(),
		Params:      make(map[string]string, len(n.Params)),
		Cost:        n.Cost,
		Parallelism: n.Parallelism,
		Generated:   n.Generated,
		PatternName: n.PatternName,
	}
	for k, v := range n.Params {
		c.Params[k] = v
	}
	return c
}

// Param returns the parameter value for key, or "".
func (n *Node) Param(key string) string { return n.Params[key] }

// SetParam sets a parameter value and returns the node for chaining.
func (n *Node) SetParam(key, value string) *Node {
	if n.Params == nil {
		n.Params = map[string]string{}
	}
	n.Params[key] = value
	return n
}

// WorkPerTuple is the abstract per-tuple work of the node after accounting
// for parallelism. It is the quantity the performance measures integrate
// along the critical path.
func (n *Node) WorkPerTuple() float64 {
	p := n.Parallelism
	if p < 1 {
		p = 1
	}
	return n.Cost.PerTuple / float64(p)
}

// Complexity is a static proxy for how process-intensive the node is; the
// checkpoint-after-complex-operation heuristic ranks nodes by it.
func (n *Node) Complexity() float64 {
	w := n.Cost.PerTuple
	if n.Kind.IsBlocking() {
		w *= 2
	}
	return w + n.Cost.Startup/1000
}

// String renders the node as id(kind:name).
func (n *Node) String() string {
	return fmt.Sprintf("%s(%s:%s)", n.ID, n.Kind, n.Name)
}

// canonical renders a deterministic node description for fingerprinting.
// Node identity (ID) is excluded so that two graphs with identical structure
// but different ID spellings hash alike once positions are accounted for.
func (n *Node) canonical() string {
	keys := make([]string, 0, len(n.Params))
	for k := range n.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(n.Kind.String())
	b.WriteByte('/')
	b.WriteString(n.Name)
	b.WriteByte('/')
	b.WriteString(n.Out.canonical())
	fmt.Fprintf(&b, "/p%d", n.Parallelism)
	for _, k := range keys {
		b.WriteByte('/')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(n.Params[k])
	}
	return b.String()
}

// digest returns the 128-bit hash of canonical(), computed on first use and
// memoized on the node. Clones of a flow share their unedited nodes, so one
// digest serves every alternative the planner derives from the flow.
func (n *Node) digest() hash128 {
	if d := n.dig.Load(); d != nil {
		return *d
	}
	d := sum128([]byte(n.canonical()))
	n.dig.Store(&d)
	return d
}

// appendCone appends the node's data-semantic description for upstream-cone
// fingerprinting (Graph.ConeKeys): the canonical digest plus the cost fields
// that influence row contents. Selectivity drives the filter operation's
// keep decisions; the remaining cost fields only shape timing, which the
// simulator derives from the concrete graph on every run, so they are
// excluded to maximise cache sharing.
func (n *Node) appendCone(b []byte) []byte {
	d := n.digest()
	b = append(b, d[:]...)
	bits := math.Float64bits(n.Cost.Selectivity)
	return append(b,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// Edge is one transition between two operations: the edge set E of the
// process graph.
type Edge struct {
	From, To NodeID
}

// String renders the edge as from->to.
func (e Edge) String() string { return string(e.From) + "->" + string(e.To) }
