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
func (e *Engine) apply(g *etl.Graph, n *etl.Node, in []*colBatch, bind Binding, ar *batchArena) ([]*colBatch, error) {
	switch n.Kind {
	case etl.OpExtract:
		spec, ok := bind[n.ID]
		if !ok {
			spec = e.defaultSpec(n)
		}
		rs := data.Generate(spec)
		return []*colBatch{colFromRows(rs.Rows, spec.Schema.ValueKinds())}, nil

	case etl.OpRecovery:
		return []*colBatch{nil}, nil

	case etl.OpLoad:
		return in, nil

	case etl.OpFilter:
		return []*colBatch{e.colFilter(n, colFlatten(in, ar), ar)}, nil

	case etl.OpFilterNull:
		return []*colBatch{colFilterNulls(g, n, colFlatten(in, ar), ar)}, nil

	case etl.OpDedup:
		return []*colBatch{colDedup(g, n, colFlatten(in, ar), ar)}, nil

	case etl.OpCrosscheck:
		return []*colBatch{colCrosscheck(in[0], ar)}, nil

	case etl.OpDerive:
		return []*colBatch{colDerive(g, n, colFlatten(in, ar), ar)}, nil

	case etl.OpProject:
		return []*colBatch{colProject(g, n, colFlatten(in, ar))}, nil

	case etl.OpConvert, etl.OpEncrypt, etl.OpNoop, etl.OpCheckpoint,
		etl.OpSplit, etl.OpPartition, etl.OpMerge, etl.OpUnion, etl.OpSort:
		return []*colBatch{colFlatten(in, ar)}, nil

	case etl.OpSurrogate:
		return []*colBatch{colSurrogate(g, n, colFlatten(in, ar))}, nil

	case etl.OpJoin, etl.OpLookup:
		if len(in) < 2 {
			return []*colBatch{colFlatten(in, ar)}, nil
		}
		out, err := colJoin(g, n, in[0], in[1], ar)
		if err != nil {
			return nil, err
		}
		return []*colBatch{out}, nil

	case etl.OpAggregate:
		return []*colBatch{colAggregate(g, n, colFlatten(in, ar), ar)}, nil

	default:
		return nil, fmt.Errorf("unsupported operation kind %s (inputs %s)", n.Kind, describe(in))
	}
}

// colFilter drops rows with the exact keep decisions of filter: the per-row
// hash is computed by one typed pass over the first column (selectHashes) and
// the survivors become a selection vector over the shared batch.
func (e *Engine) colFilter(n *etl.Node, b *colBatch, ar *batchArena) *colBatch {
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

// colFilterNulls drops rows with a NULL in the named (or all) attributes: one
// bitmap/nil scan per tested column marks the victims, then a single pass
// builds the selection vector.
func colFilterNulls(g *etl.Graph, n *etl.Node, b *colBatch, ar *batchArena) *colBatch {
	nrows := b.len()
	if nrows == 0 {
		return b
	}
	schema := g.InputSchemaView(n.ID)
	positions := attrPositions(schema, n.Param("attrs"))
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

// colDedup keeps the first row of every distinct key without rendering keys:
// column-wise key hashing plus typed-equality verification.
func colDedup(g *etl.Graph, n *etl.Node, b *colBatch, ar *batchArena) *colBatch {
	if b.len() == 0 {
		return b
	}
	return firstByKey(b, keyOrAllPositions(g.InputSchemaView(n.ID)), ar)
}

// colCrosscheck drops rows carrying an injected defect in any cell, using the
// per-kind defect scans of markErroneous.
func colCrosscheck(b *colBatch, ar *batchArena) *colBatch {
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

// colDerive appends computed columns: the numeric accumulator is built by one
// typed pass per numeric input column, then each new attribute materializes as
// a dense column. The input compacts first so new and shared columns index
// identically.
func colDerive(g *etl.Graph, n *etl.Node, b *colBatch, ar *batchArena) *colBatch {
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
	d := b.compact()
	acc := ar.zeroedFloats(d.n)
	for _, p := range numericPositions(in) {
		d.addNumeric(p, acc)
	}
	cols := make([]column, len(d.cols), len(d.cols)+len(newAttrs))
	copy(cols, d.cols)
	for _, a := range newAttrs {
		cols = append(cols, derivedColumn(a, acc))
	}
	return &colBatch{cols: cols, n: d.n}
}

// colProject picks the output schema's columns by reference — a pure
// metadata operation sharing storage and selection with the input.
func colProject(g *etl.Graph, n *etl.Node, b *colBatch) *colBatch {
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
	return &colBatch{cols: cols, n: b.n, sel: b.sel}
}

// colSurrogate writes the dense surrogate key as one int64 column.
func colSurrogate(g *etl.Graph, n *etl.Node, b *colBatch) *colBatch {
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
	d := b.compact()
	width := len(d.cols)
	if pos+1 > width {
		width = pos + 1
	}
	cols := make([]column, width)
	copy(cols, d.cols)
	ids := make([]int64, 0, d.n)
	for i := 0; i < d.n; i++ {
		ids = append(ids, int64(i+1))
	}
	cols[pos] = column{kind: colInt, ints: ids}
	return &colBatch{cols: cols, n: d.n}
}

// colJoin hash-joins left and right on their shared key attributes: the right
// side is indexed by column-wise key hash (last row wins per key, like the
// row oracle's map build), the left side probes with typed cross-batch
// equality, and the output gathers both sides by match vectors.
func colJoin(g *etl.Graph, n *etl.Node, left, right *colBatch, ar *batchArena) (*colBatch, error) {
	preds := g.PredView(n.ID)
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
	out := &colBatch{n: len(lidx), cols: make([]column, 0, len(left.cols)+len(extra))}
	for j := range left.cols {
		out.cols = append(out.cols, gatherColumn(&left.cols[j], lidx))
	}
	for _, p := range extra {
		if p < rw {
			out.cols = append(out.cols, gatherColumn(&right.cols[p], ridx))
		} else {
			out.cols = append(out.cols, column{})
		}
	}
	return out, nil
}

// colAggregate emits one representative row per group, keyed like aggregate.
func colAggregate(g *etl.Graph, n *etl.Node, b *colBatch, ar *batchArena) *colBatch {
	if b.len() == 0 {
		return b
	}
	in := g.InputSchemaView(n.ID)
	positions := attrPositions(in, n.Param("group_by"))
	if len(positions) == 0 {
		positions = keyOrAllPositions(in)
		if len(positions) > 1 {
			positions = positions[:1]
		}
	}
	return firstByKey(b, positions, ar)
}
