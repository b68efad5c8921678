package sim

// The row-at-a-time oracle: a reference implementation of the data path that
// executes flows over []etl.Row batches, one row at a time, with the simplest
// possible kernels. The columnar engine is validated against it (profiles and
// trace batches must be byte-identical). It runs full, uncached executions
// only and allocates every batch afresh; timing, recovery and failure
// sampling go through the engine's own formulas, so only the data kernels and
// the sink quality scan are independent.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/trace"
)

// rowEvaluate is Evaluate on the row oracle.
func (e *Engine) rowEvaluate(g *etl.Graph, bind Binding) (*Profile, *trace.Batch, error) {
	p, err := e.rowExecute(g, bind)
	if err != nil {
		return nil, nil, err
	}
	batch := &trace.Batch{
		Flow:                 g.Name,
		Ops:                  opStats(g, p),
		Runs:                 e.Sample(g, p, e.cfg.Runs),
		SourceUpdatesPerHour: e.SourceUpdatesPerHour(g, bind),
		PeriodMinutes:        periodMinutes(g),
	}
	return p, batch, nil
}

// rowExecute is Execute on the row oracle.
func (e *Engine) rowExecute(g *etl.Graph, bind Binding) (*Profile, error) {
	p, _, err := e.rowExecuteOutputs(g, bind)
	return p, err
}

// rowExecuteOutputs is rowExecute that also returns every node's
// pre-routing output rows, indexed by topological position.
func (e *Engine) rowExecuteOutputs(g *etl.Graph, bind Binding) (*Profile, [][][]etl.Row, error) {
	slots, pos, err := topoPositions(g)
	if err != nil {
		return nil, nil, err
	}
	order, _ := g.TopoOrder()
	p := newProfile(g.Name, order)
	nn := len(order)

	// outs[i] holds node i's pre-routing output batches; routed[i] its
	// per-successor distribution, derived when a consumer needs it.
	outs := make([][][]etl.Row, nn)
	routed := make([]map[etl.NodeID][]etl.Row, nn)
	for i, id := range order {
		n := g.Node(id)
		var in [][]etl.Row
		rowsIn := 0
		for _, pred := range g.Pred(id) {
			pi := p.IndexOf(pred)
			if routed[pi] == nil {
				routed[pi] = rowRoute(g.Node(pred), outs[pi], g.Succ(pred))
			}
			b := routed[pi][id]
			in = append(in, b)
			rowsIn += len(b)
		}
		out, err := e.rowApply(g, n, in, bind)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: executing %s: %w", n, err)
		}
		outs[i] = out
		f := 0
		for _, b := range out {
			f += len(b)
		}
		if n.Kind.IsSource() {
			rowsIn = f
		}
		p.RowsIn[i] = rowsIn
		e.finishNode(p, n, i, f, len(g.Succ(id)))
	}

	e.computeSchedule(g, p, slots, pos)
	e.computeRecovery(g, p, slots, pos)

	var sinks []int
	for i, id := range p.Order {
		if g.Node(id).Kind.IsSink() && len(g.Succ(id)) == 0 {
			sinks = append(sinks, i)
		}
	}
	sort.Slice(sinks, func(a, b int) bool { return p.Order[sinks[a]] < p.Order[sinks[b]] })
	for _, i := range sinks {
		rows := rowFlatten(outs[i])
		schema := g.InputSchema(p.Order[i])
		st := measureRows(schema, rows)
		p.RowsLoaded += len(rows)
		p.OutRows += st.Rows
		p.OutNullCells += st.NullCells
		p.OutCells += st.Rows * schema.Len()
		p.OutDupRows += st.Duplicates
		p.OutErrRows += st.Errors
	}
	return p, outs, nil
}

// rowFlatten merges output batches into one stream; a single batch is
// returned as-is.
func rowFlatten(batches [][]etl.Row) []etl.Row {
	if len(batches) == 1 {
		return batches[0]
	}
	var out []etl.Row
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// rowRoute distributes a node's output rows across its successors according
// to the node's routing semantics.
func rowRoute(n *etl.Node, out [][]etl.Row, succs []etl.NodeID) map[etl.NodeID][]etl.Row {
	m := make(map[etl.NodeID][]etl.Row, len(succs))
	all := rowFlatten(out)
	k := len(succs)
	switch {
	case k == 0:
	case n.Kind == etl.OpPartition:
		// Horizontal partition: round-robin across branches.
		dests := make([][]etl.Row, k)
		for i, r := range all {
			dests[i%k] = append(dests[i%k], r)
		}
		for j, s := range succs {
			m[s] = dests[j]
		}
	case n.Kind == etl.OpSplit && n.Param("route") == "hash" && k > 1:
		dests := make([][]etl.Row, k)
		for i, r := range all {
			j := int(hashRow(r, i) % uint64(k))
			dests[j] = append(dests[j], r)
		}
		for j, s := range succs {
			m[s] = dests[j]
		}
	default:
		// Copy semantics: every successor receives the full stream.
		for _, s := range succs {
			m[s] = all
		}
	}
	return m
}

// hashRow hashes the row's first value mixed with the row ordinal: the hash
// selectHashes reproduces column-wise.
func hashRow(r etl.Row, i int) uint64 {
	h := hashOrdinal(i)
	if len(r) > 0 && r[0] != nil {
		h = hashValue(h, r[0])
	}
	return h
}

// rowApply executes one operation on its input batches and returns the
// output batches (one logical output stream; routing happens later).
func (e *Engine) rowApply(g *etl.Graph, n *etl.Node, in [][]etl.Row, bind Binding) ([][]etl.Row, error) {
	switch n.Kind {
	case etl.OpExtract:
		spec, ok := bind[n.ID]
		if !ok {
			spec = e.defaultSpec(n)
		}
		return [][]etl.Row{data.Generate(spec).Rows}, nil
	case etl.OpRecovery:
		// The recovery source only feeds rows after a failure.
		return [][]etl.Row{nil}, nil
	case etl.OpLoad:
		return in, nil
	case etl.OpFilter:
		return [][]etl.Row{filter(n, rowFlatten(in))}, nil
	case etl.OpFilterNull:
		return [][]etl.Row{filterNulls(g, n, rowFlatten(in))}, nil
	case etl.OpDedup:
		return [][]etl.Row{dedup(g, n, rowFlatten(in))}, nil
	case etl.OpCrosscheck:
		return [][]etl.Row{crosscheck(in[0])}, nil
	case etl.OpDerive:
		return [][]etl.Row{derive(g, n, rowFlatten(in))}, nil
	case etl.OpProject:
		return [][]etl.Row{project(g, n, rowFlatten(in))}, nil
	case etl.OpConvert, etl.OpEncrypt, etl.OpNoop, etl.OpCheckpoint,
		etl.OpSplit, etl.OpPartition, etl.OpMerge, etl.OpUnion, etl.OpSort:
		return [][]etl.Row{rowFlatten(in)}, nil
	case etl.OpSurrogate:
		return [][]etl.Row{surrogate(g, n, rowFlatten(in))}, nil
	case etl.OpJoin, etl.OpLookup:
		if len(in) < 2 {
			return [][]etl.Row{rowFlatten(in)}, nil
		}
		return [][]etl.Row{join(g, n, in[0], in[1])}, nil
	case etl.OpAggregate:
		return [][]etl.Row{aggregate(g, n, rowFlatten(in))}, nil
	default:
		return nil, fmt.Errorf("unsupported operation kind %s", n.Kind)
	}
}

// isNullAt reports whether the cell at position i of the row is NULL; cells
// beyond the row's width are NULL.
func isNullAt(r etl.Row, i int) bool { return i < 0 || i >= len(r) || r[i] == nil }

// keyString renders the row's values at the given positions as a composite
// key, the row oracle's grouping and join identity.
func keyString(r etl.Row, positions []int) string {
	var b strings.Builder
	for i, p := range positions {
		if i > 0 {
			b.WriteByte('|')
		}
		if p >= 0 && p < len(r) && r[p] != nil {
			fmt.Fprintf(&b, "%v", r[p])
		} else {
			b.WriteString("\x00NULL")
		}
	}
	return b.String()
}

func TestOracleRowHelpers(t *testing.T) {
	r := etl.Row{int64(1), nil, "x"}
	if !isNullAt(r, 1) || isNullAt(r, 0) {
		t.Error("isNullAt misbehaves")
	}
	if !isNullAt(r, 99) || !isNullAt(r, -1) {
		t.Error("isNullAt should treat out-of-range as null")
	}
	k1 := keyString(r, []int{0, 2})
	k2 := keyString(etl.Row{int64(1), "y", "x"}, []int{0, 2})
	if k1 != k2 {
		t.Errorf("keyString mismatch: %q vs %q", k1, k2)
	}
	if keyString(r, []int{1}) == keyString(etl.Row{etl.Value("")}, []int{0}) {
		t.Error("NULL key must differ from empty string key")
	}
}

// filter keeps a row when the hash of the row and its ordinal falls under the
// node's selectivity.
func filter(n *etl.Node, rows []etl.Row) []etl.Row {
	sel := n.Cost.Selectivity
	if sel >= 1 {
		return rows
	}
	var out []etl.Row
	for i, r := range rows {
		if float64(hashRow(r, i)%10000) < sel*10000 {
			out = append(out, r)
		}
	}
	return out
}

// filterNulls drops rows with a NULL in any attribute named in the "attrs"
// parameter, or in any attribute when unset.
func filterNulls(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	schema := g.InputSchema(n.ID)
	positions := attrPositions(schema, n.Param("attrs"))
	if len(positions) == 0 {
		for i := range schema.Attrs {
			positions = append(positions, i)
		}
	}
	var out []etl.Row
next:
	for _, r := range rows {
		for _, i := range positions {
			if isNullAt(r, i) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// firstPerKey keeps the first row of every distinct rendered key.
func firstPerKey(rows []etl.Row, positions []int) []etl.Row {
	seen := make(map[string]bool, len(rows))
	var out []etl.Row
	for _, r := range rows {
		k := keyString(r, positions)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// dedup removes duplicate rows by key attributes (or all attributes when the
// schema has no keys).
func dedup(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	return firstPerKey(rows, keyOrAllPositions(g.InputSchema(n.ID)))
}

// crosscheck drops rows carrying an injected defect in any cell.
func crosscheck(rows []etl.Row) []etl.Row {
	var out []etl.Row
next:
	for _, r := range rows {
		for _, v := range r {
			if data.IsErroneous(v) {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// derive appends a computed value for every output attribute the input
// schema lacks.
func derive(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	in := g.InputSchema(n.ID)
	var newAttrs []etl.Attribute
	for _, a := range n.Out.Attrs {
		if !in.Has(a.Name) {
			newAttrs = append(newAttrs, a)
		}
	}
	if len(newAttrs) == 0 {
		return rows
	}
	numPos := numericPositions(in)
	out := make([]etl.Row, len(rows))
	for i, r := range rows {
		nr := r.Clone()
		for _, a := range newAttrs {
			nr = append(nr, computeDerived(a, r, numPos))
		}
		out[i] = nr
	}
	return out
}

// computeDerived is the synthetic derivation: the sum of the row's numeric
// cells, rendered in the attribute's type.
func computeDerived(a etl.Attribute, r etl.Row, numPos []int) etl.Value {
	acc := 0.0
	for _, p := range numPos {
		if p < len(r) {
			switch v := r[p].(type) {
			case int64:
				acc += float64(v)
			case float64:
				acc += v
			}
		}
	}
	switch a.Type {
	case etl.TypeInt:
		return int64(acc)
	case etl.TypeFloat:
		return acc * 1.1
	case etl.TypeString:
		return "d" + strconv.FormatFloat(acc, 'f', 0, 64)
	case etl.TypeBool:
		return acc > 0
	case etl.TypeDate:
		return int64(17000)
	default:
		return nil
	}
}

// project keeps only the attributes of the node's output schema, in order.
func project(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	in := g.InputSchema(n.ID)
	out := make([]etl.Row, len(rows))
	for i, r := range rows {
		nr := make(etl.Row, n.Out.Len())
		for j, a := range n.Out.Attrs {
			if p := in.Index(a.Name); p >= 0 && p < len(r) {
				nr[j] = r[p]
			}
		}
		out[i] = nr
	}
	return out
}

// surrogate assigns a dense surrogate key in the first new integer key
// attribute of the output schema.
func surrogate(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	in := g.InputSchema(n.ID)
	pos := -1
	for _, a := range n.Out.Attrs {
		if a.Key && a.Type == etl.TypeInt && !in.Has(a.Name) {
			pos = n.Out.Index(a.Name)
			break
		}
	}
	out := make([]etl.Row, len(rows))
	for i, r := range rows {
		nr := r.Clone()
		if pos >= 0 {
			for len(nr) <= pos {
				nr = append(nr, nil)
			}
			nr[pos] = int64(i + 1)
		}
		out[i] = nr
	}
	return out
}

// join hash-joins left and right on their shared key attributes, extending
// each left row by the right row's other attributes; lookups keep unmatched
// left rows with NULL enrichment.
func join(g *etl.Graph, n *etl.Node, left, right []etl.Row) []etl.Row {
	preds := g.Pred(n.ID)
	if len(preds) < 2 {
		return left
	}
	ls := g.Node(preds[0]).Out
	rs := g.Node(preds[1]).Out
	lpos, rpos := sharedKeyPositions(ls, rs)
	if len(lpos) == 0 {
		return left
	}
	idx := make(map[string]etl.Row, len(right))
	for _, r := range right {
		idx[keyString(r, rpos)] = r
	}
	extra := nonSharedPositions(rs, ls)
	var out []etl.Row
	for _, l := range left {
		r, ok := idx[keyString(l, lpos)]
		if !ok && n.Kind != etl.OpLookup {
			continue
		}
		nr := l.Clone()
		for _, p := range extra {
			if ok && p < len(r) {
				nr = append(nr, r[p])
			} else {
				nr = append(nr, nil)
			}
		}
		out = append(out, nr)
	}
	return out
}

// aggregate emits the first row of every group of the "group_by" attributes
// (or the first key attribute, or the first attribute).
func aggregate(g *etl.Graph, n *etl.Node, rows []etl.Row) []etl.Row {
	in := g.InputSchema(n.ID)
	positions := attrPositions(in, n.Param("group_by"))
	if len(positions) == 0 {
		positions = keyOrAllPositions(in)
		if len(positions) > 1 {
			positions = positions[:1]
		}
	}
	return firstPerKey(rows, positions)
}

// measureRows scans rows and counts observable defects against the schema:
// the row-wise reference for measureColumns.
func measureRows(schema etl.Schema, rows []etl.Row) data.Stats {
	st := data.Stats{Rows: len(rows)}
	keyPos := schemaKeyPositions(schema)
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		for i := range schema.Attrs {
			if isNullAt(r, i) {
				st.NullCells++
			}
		}
		for _, v := range r {
			if data.IsErroneous(v) {
				st.Errors++
				break
			}
		}
		if len(keyPos) > 0 {
			k := keyString(r, keyPos)
			if seen[k] {
				st.Duplicates++
			}
			seen[k] = true
		}
	}
	return st
}

// toRows materializes a column batch back into rows (full batch width,
// explicit nils for NULL cells).
func (b *batch) toRows() []etl.Row {
	n := b.len()
	if n == 0 {
		return nil
	}
	out := make([]etl.Row, n)
	for i := range out {
		out[i] = make(etl.Row, len(b.cols))
		for j := range b.cols {
			out[i][j] = b.cols[j].value(b.phys(i))
		}
	}
	return out
}
