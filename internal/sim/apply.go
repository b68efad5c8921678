package sim

import (
	"fmt"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

func attrPositions(s etl.Schema, csv string) []int {
	if csv == "" {
		return nil
	}
	var out []int
	start := 0
	for i := 0; i <= len(csv); i++ {
		if i == len(csv) || csv[i] == ',' {
			name := trimSpace(csv[start:i])
			if p := s.Index(name); p >= 0 {
				out = append(out, p)
			}
			start = i + 1
		}
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func keyOrAllPositions(s etl.Schema) []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Key {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		for i := range s.Attrs {
			out = append(out, i)
		}
	}
	return out
}

func numericPositions(s etl.Schema) []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Type.IsNumeric() {
			out = append(out, i)
		}
	}
	return out
}

func sharedKeyPositions(left, right etl.Schema) (lpos, rpos []int) {
	// Prefer shared key attributes, fall back to any shared attribute.
	for i, a := range left.Attrs {
		if !a.Key {
			continue
		}
		if j := right.Index(a.Name); j >= 0 {
			lpos = append(lpos, i)
			rpos = append(rpos, j)
		}
	}
	if len(lpos) > 0 {
		return lpos, rpos
	}
	for i, a := range left.Attrs {
		if j := right.Index(a.Name); j >= 0 {
			lpos = append(lpos, i)
			rpos = append(rpos, j)
			return lpos, rpos
		}
	}
	return nil, nil
}

func nonSharedPositions(from, other etl.Schema) []int {
	var out []int
	for i, a := range from.Attrs {
		if !other.Has(a.Name) {
			out = append(out, i)
		}
	}
	return out
}

// apply executes one operation on its input batches and returns the output
// batches (one logical output stream; routing to successors happens later).
// Kernels are per-column loops over selection vectors.
func (e *Engine) apply(g *etl.Graph, n *etl.Node, in []*batch, bind Binding, ar *batchArena) ([]*batch, error) {
	if n.Kind.IsPassThrough() {
		// With one input the engine forwards these without calling apply.
		return []*batch{flatten(in, ar)}, nil
	}
	switch n.Kind {
	case etl.OpExtract:
		spec, ok := bind[n.ID]
		if !ok {
			spec = e.defaultSpec(n)
		}
		rs := data.Generate(spec)
		return []*batch{batchFromRows(rs.Rows, spec.Schema.ValueKinds())}, nil

	case etl.OpRecovery:
		return []*batch{nil}, nil

	case etl.OpLoad:
		return in, nil

	case etl.OpFilter:
		return []*batch{e.filterRows(n, flatten(in, ar), ar)}, nil

	case etl.OpFilterNull:
		return []*batch{filterNullRows(g, n, flatten(in, ar), ar)}, nil

	case etl.OpDedup:
		return []*batch{dedupRows(g, n, flatten(in, ar), ar)}, nil

	case etl.OpCrosscheck:
		return []*batch{crosscheckRows(in[0], ar)}, nil

	case etl.OpDerive:
		return []*batch{deriveRows(g, n, flatten(in, ar), ar)}, nil

	case etl.OpProject:
		return []*batch{projectRows(g, n, flatten(in, ar))}, nil

	case etl.OpSurrogate:
		return []*batch{surrogateRows(g, n, flatten(in, ar))}, nil

	case etl.OpJoin, etl.OpLookup:
		if len(in) < 2 {
			return []*batch{flatten(in, ar)}, nil
		}
		out, err := joinRows(g, n, in[0], in[1], ar)
		if err != nil {
			return nil, err
		}
		return []*batch{out}, nil

	case etl.OpAggregate:
		return []*batch{aggregateRows(g, n, flatten(in, ar), ar)}, nil

	default:
		return nil, fmt.Errorf("unsupported operation kind %s (inputs %s)", n.Kind, describe(in))
	}
}

// filterRows drops rows with the exact keep decisions of filter: the per-row
// hash is computed by one typed pass over the first column (selectHashes) and
// the survivors become a selection vector over the shared batch.
func (e *Engine) filterRows(n *etl.Node, b *batch, ar *batchArena) *batch {
	sel := n.Cost.Selectivity
	if sel >= 1 || b.len() == 0 {
		return b
	}
	nrows := b.len()
	hashes := ar.hashes(nrows)
	b.selectHashes(hashes)
	keep := ar.idx(nrows)
	thresh := sel * 10000
	for i := 0; i < nrows; i++ {
		if float64(hashes[i]%10000) < thresh {
			keep = append(keep, int32(b.phys(i)))
		}
	}
	return withSel(b, ownedSel(keep))
}

// filterNullRows drops rows with a NULL in the named (or all) attributes: one
// bitmap/nil scan per tested column marks the victims, then a single pass
// builds the selection vector.
func filterNullRows(g *etl.Graph, n *etl.Node, b *batch, ar *batchArena) *batch {
	nrows := b.len()
	if nrows == 0 {
		return b
	}
	schema := g.InputSchemaView(n.ID)
	positions := attrPositions(schema, n.Param(etl.ParamAttrs))
	if len(positions) == 0 {
		for i := range schema.Attrs {
			positions = append(positions, i)
		}
		if len(positions) == 0 {
			return b
		}
	}
	null := ar.zeroedBools(nrows)
	for _, j := range positions {
		b.markNullRows(j, null)
	}
	keep := ar.idx(nrows)
	for i := 0; i < nrows; i++ {
		if !null[i] {
			keep = append(keep, int32(b.phys(i)))
		}
	}
	return withSel(b, ownedSel(keep))
}

// dedupRows keeps the first row of every distinct key without rendering keys:
// column-wise key hashing plus typed-equality verification.
func dedupRows(g *etl.Graph, n *etl.Node, b *batch, ar *batchArena) *batch {
	if b.len() == 0 {
		return b
	}
	return firstByKey(b, keyOrAllPositions(g.InputSchemaView(n.ID)), ar)
}

// crosscheckRows drops rows carrying an injected defect in any cell, using the
// per-kind defect scans of markErroneous.
func crosscheckRows(b *batch, ar *batchArena) *batch {
	nrows := b.len()
	if nrows == 0 {
		return b
	}
	bad := ar.zeroedBools(nrows)
	for j := range b.cols {
		b.cols[j].markErroneous(b, bad)
	}
	keep := ar.idx(nrows)
	for i := 0; i < nrows; i++ {
		if !bad[i] {
			keep = append(keep, int32(b.phys(i)))
		}
	}
	return withSel(b, ownedSel(keep))
}

// deriveRows appends computed columns: the numeric accumulator is built by one
// typed pass per numeric input column, then each new attribute becomes a
// column indexed by physical row, so the output keeps the input's columns
// and selection vector as they are.
func deriveRows(g *etl.Graph, n *etl.Node, b *batch, ar *batchArena) *batch {
	in := g.InputSchemaView(n.ID)
	var newAttrs []etl.Attribute
	for _, a := range n.Out.Attrs {
		if !in.Has(a.Name) {
			newAttrs = append(newAttrs, a)
		}
	}
	if len(newAttrs) == 0 || b.len() == 0 {
		return b
	}
	acc := ar.zeroedFloats(b.n)
	for _, p := range numericPositions(in) {
		b.sumNumeric(p, acc)
	}
	cols := make([]column, len(b.cols), len(b.cols)+len(newAttrs))
	copy(cols, b.cols)
	for _, a := range newAttrs {
		cols = append(cols, b.deriveColumn(a, acc))
	}
	return &batch{cols: cols, n: b.n, sel: b.sel}
}

// projectRows picks the output schema's columns by reference — a pure
// metadata operation sharing storage and selection with the input.
func projectRows(g *etl.Graph, n *etl.Node, b *batch) *batch {
	if b.len() == 0 {
		return b
	}
	in := g.InputSchemaView(n.ID)
	cols := make([]column, 0, n.Out.Len())
	for _, a := range n.Out.Attrs {
		if p := in.Index(a.Name); p >= 0 && p < len(b.cols) {
			cols = append(cols, b.cols[p])
		} else {
			cols = append(cols, column{})
		}
	}
	return &batch{cols: cols, n: b.n, sel: b.sel}
}

// surrogateRows writes the dense surrogate key as one int64 column indexed by
// physical row: logical row i gets key i+1, and the input's columns and
// selection vector are kept.
func surrogateRows(g *etl.Graph, n *etl.Node, b *batch) *batch {
	in := g.InputSchemaView(n.ID)
	pos := -1
	for _, a := range n.Out.Attrs {
		if a.Key && a.Type == etl.TypeInt && !in.Has(a.Name) {
			pos = n.Out.Index(a.Name)
			break
		}
	}
	if pos < 0 || b.len() == 0 {
		return b
	}
	cols := make([]column, max(len(b.cols), pos+1))
	copy(cols, b.cols)
	ids := make([]int64, b.n)
	for i := range b.len() {
		ids[b.phys(i)] = int64(i + 1)
	}
	cols[pos] = column{kind: storeInt, ints: ids}
	return &batch{cols: cols, n: b.n, sel: b.sel}
}

// joinRows hash-joins left and right on their shared key attributes: the right
// side is indexed by column-wise key hash (last row wins per key, like the
// row oracle's map build) and the left side probes with typed cross-batch
// equality. The output is late-materialized: it keeps the left input's
// columns as they are, with the matched left rows as its selection vector,
// and builds only the right side's extra columns, scattered into the left
// side's physical row space (an unmatched lookup row reads NULL there).
func joinRows(g *etl.Graph, n *etl.Node, left, right *batch, ar *batchArena) (*batch, error) {
	preds := g.Pred(n.ID)
	if len(preds) < 2 {
		return left, nil
	}
	ls := g.Node(preds[0]).Out
	rs := g.Node(preds[1]).Out
	lpos, rpos := sharedKeyPositions(ls, rs)
	if len(lpos) == 0 {
		// No shared attributes: degenerate to the left input.
		return left, nil
	}
	ln := left.len()
	if ln == 0 {
		return left, nil
	}
	rn := right.len()
	jt := ar.joinTable(left, right, lpos, rpos, rn)
	if rn > 0 {
		rh := ar.hashes(rn)
		right.keyHashes(rpos, rh)
		for i := 0; i < rn; i++ {
			jt.put(int32(right.phys(i)), rh[i])
		}
	}
	extra := nonSharedPositions(rs, ls)
	lidx := ar.idx(ln)
	ridx := ar.idx(ln)
	lh := ar.hashes(ln)
	left.keyHashes(lpos, lh)
	lookup := n.Kind == etl.OpLookup
	for i := 0; i < ln; i++ {
		lp := int32(left.phys(i))
		q, ok := jt.get(lp, lh[i])
		if !ok {
			if lookup {
				// Lookup keeps unmatched rows with NULL enrichment.
				lidx = append(lidx, lp)
				ridx = append(ridx, -1)
			}
			continue
		}
		lidx = append(lidx, lp)
		ridx = append(ridx, q)
	}
	rw := 0
	if right != nil {
		rw = len(right.cols)
	}
	cols := make([]column, len(left.cols), len(left.cols)+len(extra))
	copy(cols, left.cols)
	for _, p := range extra {
		if p < rw {
			cols = append(cols, scatterColumn(&right.cols[p], lidx, ridx, left.n))
		} else {
			cols = append(cols, column{})
		}
	}
	return &batch{cols: cols, n: left.n, sel: ownedSel(lidx)}, nil
}

// aggregateRows emits one representative row per group, keyed like aggregate.
func aggregateRows(g *etl.Graph, n *etl.Node, b *batch, ar *batchArena) *batch {
	if b.len() == 0 {
		return b
	}
	in := g.InputSchemaView(n.ID)
	positions := attrPositions(in, n.Param(etl.ParamGroupBy))
	if len(positions) == 0 {
		positions = keyOrAllPositions(in)
		if len(positions) > 1 {
			positions = positions[:1]
		}
	}
	return firstByKey(b, positions, ar)
}
