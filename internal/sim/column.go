// Columnar batch representation: the engine's data path.
//
// A colBatch stores one typed slice per attribute position (int64, float64,
// string, bool — with a []etl.Value fallback for mixed or unknown types) plus
// a packed null bitmap per column, built once from the binding's generated
// rows at extract. Operators
// run as tight per-column loops and communicate row subsets through selection
// vectors (a []int32 of physical row indices) instead of materializing
// filtered copies, so a chain of filters over one extract shares a single set
// of column arrays.
//
// Hashing is column-wise where the hash is an internal detail (dedup,
// aggregate, join build keys: one typed pass per key column folds value
// hashes into a per-row key hash, verified by typed equality on collision so
// grouping semantics stay exactly "group by value") and byte-compatible with
// the row oracle's per-row hash where the hash value itself decides
// simulation results (filter keep decisions, hash-split routing) — that is
// what keeps the engine byte-identical to the row-at-a-time reference
// implementation its tests compare against.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// colKind is the physical storage of one column. The zero value is colNull —
// a column of all NULLs with no storage — so zero-value padding columns are
// safe to read.
type colKind uint8

const (
	colNull colKind = iota
	colInt
	colFloat
	colStr
	colBool
	colAny
)

// column is one attribute position across a batch. Exactly the slice matching
// kind is populated; nulls is the packed null bitmap (bit set = NULL), nil
// when no cell is NULL. colAny columns represent NULL as a nil element and
// carry no bitmap. Slots under a set null bit hold the zero value.
type column struct {
	kind   colKind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	anys   []etl.Value
	nulls  []uint64
}

func nullWords(n int) int { return (n + 63) >> 6 }

func setBit(words []uint64, p int) { words[p>>6] |= 1 << (uint(p) & 63) }

func (c *column) nullAt(p int) bool {
	switch c.kind {
	case colNull:
		return true
	case colAny:
		return c.anys[p] == nil
	default:
		return c.nulls != nil && c.nulls[p>>6]&(1<<(uint(p)&63)) != 0
	}
}

// value boxes the cell back into an etl.Value (conversion boundaries only).
func (c *column) value(p int) etl.Value {
	if c.nullAt(p) {
		return nil
	}
	switch c.kind {
	case colInt:
		return c.ints[p]
	case colFloat:
		return c.floats[p]
	case colStr:
		return c.strs[p]
	case colBool:
		return c.bools[p]
	case colAny:
		return c.anys[p]
	default:
		return nil
	}
}

// colBatch is one logical stream of rows in columnar form. n is the physical
// row count (the length of every column); sel, when non-nil, is the selection
// vector: the batch's logical rows are sel's physical indices, in order.
// Batches share column storage freely and never mutate it — operators either
// narrow a batch with a new selection vector or build new columns.
type colBatch struct {
	cols []column
	n    int
	sel  []int32
}

// len is the logical row count; a nil batch is empty.
func (b *colBatch) len() int {
	if b == nil {
		return 0
	}
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// phys maps a logical row index to its physical index.
func (b *colBatch) phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// withSel narrows the batch to the given physical row indices, sharing
// column storage.
func withSel(b *colBatch, keep []int32) *colBatch {
	return &colBatch{cols: b.cols, n: b.n, sel: keep}
}

// ---------------------------------------------------------------------------
// Cell references: a boxed-free discriminated view of one cell, used by the
// equality checks that verify hash-bucket collisions. int normalizes into
// int64 (both render identically and compare equal under the row oracle's
// rendered-key semantics).

type cellClass uint8

const (
	cellNull cellClass = iota
	cellInt
	cellFloat
	cellStr
	cellBool
	cellOther
)

type cellRef struct {
	cls cellClass
	i   int64
	f   uint64 // float64 bits: -0 and +0 render differently, so compare bits
	s   string
	b   bool
	v   etl.Value // cellOther only
}

func cellOf(v etl.Value) cellRef {
	switch x := v.(type) {
	case nil:
		return cellRef{}
	case int64:
		return cellRef{cls: cellInt, i: x}
	case int:
		return cellRef{cls: cellInt, i: int64(x)}
	case float64:
		return cellRef{cls: cellFloat, f: math.Float64bits(x)}
	case string:
		return cellRef{cls: cellStr, s: x}
	case bool:
		return cellRef{cls: cellBool, b: x}
	default:
		return cellRef{cls: cellOther, v: x}
	}
}

// cell views the cell at physical index p.
func (c *column) cell(p int) cellRef {
	if c.nullAt(p) {
		return cellRef{}
	}
	switch c.kind {
	case colInt:
		return cellRef{cls: cellInt, i: c.ints[p]}
	case colFloat:
		return cellRef{cls: cellFloat, f: math.Float64bits(c.floats[p])}
	case colStr:
		return cellRef{cls: cellStr, s: c.strs[p]}
	case colBool:
		return cellRef{cls: cellBool, b: c.bools[p]}
	default:
		return cellOf(c.anys[p])
	}
}

// colCell views the cell at (column j, physical row p); out-of-range columns
// are NULL, mirroring Row.IsNullAt for rows shorter than the schema.
func colCell(b *colBatch, j, p int) cellRef {
	if j < 0 || j >= len(b.cols) {
		return cellRef{}
	}
	return b.cols[j].cell(p)
}

func cellEqual(a, b cellRef) bool {
	if a.cls != b.cls {
		return false
	}
	switch a.cls {
	case cellNull:
		return true
	case cellInt:
		return a.i == b.i
	case cellFloat:
		return a.f == b.f
	case cellStr:
		return a.s == b.s
	case cellBool:
		return a.b == b.b
	default:
		// Oddball types compare by the same canonical identity hashValue
		// hashes: dynamic type plus rendered form.
		//lint:ignore nofmtkernel off-hot-path fallback mirroring hashValue's canonical identity
		return fmt.Sprintf("%T\x00%v", a.v, a.v) == fmt.Sprintf("%T\x00%v", b.v, b.v)
	}
}

// ---------------------------------------------------------------------------
// Hashing.

const (
	fnvOffset = uint64(1469598103934665603)
	fnvPrime  = uint64(1099511628211)

	// Key-hash seeds separate the value classes so e.g. int64(1) and true
	// land apart; collisions are verified by cellEqual regardless.
	keyNullHash  = uint64(0x9E3779B97F4A7C15)
	keySeedInt   = uint64(0xA24BAED4963EE407)
	keySeedFloat = uint64(0x9FB21C651E98DF25)
	keySeedStr   = uint64(0xC2B2AE3D27D4EB4F)
	keySeedBool  = uint64(0x165667B19E3779F9)
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// keyHash is the value-identity hash used by group and join tables. It
// depends only on the value (not on which column kind stores it), so typed
// and fallback columns hash consistently; equal values always hash equal.
func (r cellRef) keyHash() uint64 {
	switch r.cls {
	case cellNull:
		return keyNullHash
	case cellInt:
		return mix64(uint64(r.i) + keySeedInt)
	case cellFloat:
		return mix64(r.f + keySeedFloat)
	case cellStr:
		return mix64(hashString(r.s) + keySeedStr)
	case cellBool:
		x := uint64(0)
		if r.b {
			x = 1
		}
		return mix64(x + keySeedBool)
	default:
		return mix64(hashValue(fnvOffset, r.v))
	}
}

// foldKeyHash folds column j into the per-logical-row key hashes in dst
// (seeded by the caller): one typed pass over the column per key attribute,
// so composite keys hash without rendering any value.
func (b *colBatch) foldKeyHash(j int, dst []uint64) {
	n := b.len()
	if j < 0 || j >= len(b.cols) {
		for i := 0; i < n; i++ {
			dst[i] = (dst[i] ^ keyNullHash) * fnvPrime
		}
		return
	}
	c := &b.cols[j]
	sel := b.sel
	switch c.kind {
	case colNull:
		for i := 0; i < n; i++ {
			dst[i] = (dst[i] ^ keyNullHash) * fnvPrime
		}
	case colInt:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			vh := keyNullHash
			if !c.nullAt(p) {
				vh = mix64(uint64(c.ints[p]) + keySeedInt)
			}
			dst[i] = (dst[i] ^ vh) * fnvPrime
		}
	case colFloat:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			vh := keyNullHash
			if !c.nullAt(p) {
				vh = mix64(math.Float64bits(c.floats[p]) + keySeedFloat)
			}
			dst[i] = (dst[i] ^ vh) * fnvPrime
		}
	case colStr:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			vh := keyNullHash
			if !c.nullAt(p) {
				vh = mix64(hashString(c.strs[p]) + keySeedStr)
			}
			dst[i] = (dst[i] ^ vh) * fnvPrime
		}
	case colBool:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			vh := keyNullHash
			if !c.nullAt(p) {
				x := uint64(0)
				if c.bools[p] {
					x = 1
				}
				vh = mix64(x + keySeedBool)
			}
			dst[i] = (dst[i] ^ vh) * fnvPrime
		}
	default:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			vh := cellOf(c.anys[p]).keyHash()
			dst[i] = (dst[i] ^ vh) * fnvPrime
		}
	}
}

// keyHashes computes the per-logical-row composite key hash over positions.
func (b *colBatch) keyHashes(positions []int, dst []uint64) {
	for i := range dst {
		dst[i] = fnvOffset
	}
	for _, j := range positions {
		b.foldKeyHash(j, dst)
	}
}

// selectHashes fills dst with, per logical row i, hashOrdinal(i) with the
// row's first cell folded in by hashValue (nothing folded for NULL) — the
// value that decides filter keeps and hash-split routing, so every typed fast
// path must produce exactly hashValue's bytes. The type switch is hoisted out
// of the row loop.
func (b *colBatch) selectHashes(dst []uint64) {
	n := b.len()
	if b == nil || len(b.cols) == 0 {
		for i := 0; i < n; i++ {
			dst[i] = hashOrdinal(i)
		}
		return
	}
	c := &b.cols[0]
	sel := b.sel
	var buf [32]byte
	switch c.kind {
	case colNull:
		for i := 0; i < n; i++ {
			dst[i] = hashOrdinal(i)
		}
	case colInt:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			h := hashOrdinal(i)
			if !c.nullAt(p) {
				h = hashBytes(h, strconv.AppendInt(buf[:0], c.ints[p], 10))
			}
			dst[i] = h
		}
	case colFloat:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			h := hashOrdinal(i)
			if !c.nullAt(p) {
				h = hashBytes(h, strconv.AppendFloat(buf[:0], c.floats[p], 'g', -1, 64))
			}
			dst[i] = h
		}
	case colStr:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			h := hashOrdinal(i)
			if !c.nullAt(p) {
				h = hashStringInto(h, c.strs[p])
			}
			dst[i] = h
		}
	case colBool:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			h := hashOrdinal(i)
			if !c.nullAt(p) {
				s := "false"
				if c.bools[p] {
					s = "true"
				}
				h = hashStringInto(h, s)
			}
			dst[i] = h
		}
	default:
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			h := hashOrdinal(i)
			if v := c.anys[p]; v != nil {
				h = hashValue(h, v)
			}
			dst[i] = h
		}
	}
}

// ---------------------------------------------------------------------------
// Group and join tables: hash buckets verified by typed equality, so grouping
// is exactly "group by value" (which, over the engine's homogeneous typed
// columns, matches the row oracle's rendered-key grouping).

func (b *colBatch) keyEqualAt(p, q int, positions []int) bool {
	for _, j := range positions {
		if !cellEqual(colCell(b, j, p), colCell(b, j, q)) {
			return false
		}
	}
	return true
}

// groupTable deduplicates rows of one batch by key positions in first-seen
// order. m maps key hash to the first physical row with that hash; true
// 64-bit collisions between distinct keys spill into over.
type groupTable struct {
	b    *colBatch
	pos  []int
	m    map[uint64]int32
	over map[uint64][]int32
}

func newGroupTable(b *colBatch, pos []int, capHint int) *groupTable {
	return &groupTable{b: b, pos: pos, m: make(map[uint64]int32, capHint)}
}

// insert reports whether physical row p is the first occurrence of its key.
func (t *groupTable) insert(p int32, h uint64) bool {
	q, ok := t.m[h]
	if !ok {
		t.m[h] = p
		return true
	}
	if t.b.keyEqualAt(int(p), int(q), t.pos) {
		return false
	}
	for _, r := range t.over[h] {
		if t.b.keyEqualAt(int(p), int(r), t.pos) {
			return false
		}
	}
	if t.over == nil {
		t.over = make(map[uint64][]int32)
	}
	t.over[h] = append(t.over[h], p)
	return true
}

// firstByKey keeps the first logical row of every distinct key — the shared
// kernel of dedup and aggregate (and the duplicate count of measureColumns).
func firstByKey(b *colBatch, positions []int, ar *batchArena) *colBatch {
	n := b.len()
	if n == 0 {
		return b
	}
	hashes := u64Scratch(ar, n)
	b.keyHashes(positions, hashes)
	t := newGroupTable(b, positions, n)
	keep := selScratch(ar, n)
	for i := 0; i < n; i++ {
		p := int32(b.phys(i))
		if t.insert(p, hashes[i]) {
			keep = append(keep, p)
		}
	}
	return withSel(b, keep)
}

// crossKeyEqual compares left row lp (at lpos) with right row rp (at rpos).
func crossKeyEqual(lb *colBatch, lp int, lpos []int, rb *colBatch, rp int, rpos []int) bool {
	for k := range lpos {
		if !cellEqual(colCell(lb, lpos[k], lp), colCell(rb, rpos[k], rp)) {
			return false
		}
	}
	return true
}

// joinTable indexes the right batch by key; like the row oracle's map build,
// the last right row wins for duplicate keys. Buckets hold one slot per
// distinct key.
type joinTable struct {
	left, right *colBatch
	lpos, rpos  []int
	m           map[uint64][]int32
}

func (t *joinTable) put(p int32, h uint64) {
	bucket := t.m[h]
	for k, q := range bucket {
		if t.right.keyEqualAt(int(p), int(q), t.rpos) {
			bucket[k] = p
			return
		}
	}
	t.m[h] = append(bucket, p)
}

func (t *joinTable) get(lp int32, h uint64) (int32, bool) {
	for _, q := range t.m[h] {
		if crossKeyEqual(t.left, int(lp), t.lpos, t.right, int(q), t.rpos) {
			return q, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Building, gathering, flattening, conversion.

// colBuilder accumulates one output column cell by cell. Every appended cell
// consumes one slot (nulls append the zero value), so slots and bitmap stay
// aligned and no stale scratch value is ever observable.
type colBuilder struct {
	col   column
	n     int
	total int
}

func newColBuilder(kind colKind, total int, ar *batchArena) *colBuilder {
	w := &colBuilder{col: column{kind: kind}, total: total}
	switch kind {
	case colInt:
		w.col.ints = i64Scratch(ar, total)
	case colFloat:
		w.col.floats = f64Scratch(ar, total)
	case colStr:
		w.col.strs = strScratch(ar, total)
	case colBool:
		w.col.bools = boolScratch(ar, total)
	case colAny:
		w.col.anys = anyScratch(ar, total)
	}
	return w
}

func (w *colBuilder) markNull() {
	if w.col.kind == colAny || w.col.kind == colNull {
		return
	}
	if w.col.nulls == nil {
		w.col.nulls = make([]uint64, nullWords(w.total))
	}
	setBit(w.col.nulls, w.n)
}

func (w *colBuilder) appendNull() {
	w.markNull()
	switch w.col.kind {
	case colInt:
		w.col.ints = append(w.col.ints, 0)
	case colFloat:
		w.col.floats = append(w.col.floats, 0)
	case colStr:
		w.col.strs = append(w.col.strs, "")
	case colBool:
		w.col.bools = append(w.col.bools, false)
	case colAny:
		w.col.anys = append(w.col.anys, nil)
	}
	w.n++
}

// appendFrom appends cells idx of source column c (physical indices; -1
// appends NULL). The source must either match the builder's kind, be all-NULL,
// or the builder must be colAny.
func (w *colBuilder) appendFrom(c *column, idx []int32) {
	if c.kind == w.col.kind && c.kind != colAny && c.kind != colNull {
		for _, p := range idx {
			if p < 0 || c.nullAt(int(p)) {
				w.appendNull()
				continue
			}
			switch w.col.kind {
			case colInt:
				w.col.ints = append(w.col.ints, c.ints[p])
			case colFloat:
				w.col.floats = append(w.col.floats, c.floats[p])
			case colStr:
				w.col.strs = append(w.col.strs, c.strs[p])
			case colBool:
				w.col.bools = append(w.col.bools, c.bools[p])
			}
			w.n++
		}
		return
	}
	if c.kind == colNull {
		for range idx {
			w.appendNull()
		}
		return
	}
	// Fallback: box through values (builder is colAny, or kinds diverged).
	for _, p := range idx {
		if p < 0 {
			w.appendNull()
			continue
		}
		v := c.value(int(p))
		if v == nil {
			w.appendNull()
			continue
		}
		w.col.anys = append(w.col.anys, v)
		w.n++
	}
}

func (w *colBuilder) build() column { return w.col }

// gatherColumn materializes the cells of c at idx into a dense column.
func gatherColumn(c *column, idx []int32, ar *batchArena) column {
	kind := c.kind
	if kind == colNull {
		return column{kind: colNull}
	}
	w := newColBuilder(kind, len(idx), ar)
	w.appendFrom(c, idx)
	return w.build()
}

// compact materializes the selection vector into dense columns. Operators
// that add dense per-logical-row columns (derive, surrogate) compact first so
// new and existing columns share indexing.
func (b *colBatch) compact(ar *batchArena) *colBatch {
	if b == nil || b.sel == nil {
		return b
	}
	nb := &colBatch{n: len(b.sel), cols: make([]column, len(b.cols))}
	for j := range b.cols {
		nb.cols[j] = gatherColumn(&b.cols[j], b.sel, ar)
	}
	return nb
}

// colFlatten merges output batches into one logical stream; a single batch is
// returned as-is (selection intact). Multi-input merges pad narrower batches
// with NULL columns, mirroring how the row oracle's ragged rows read as NULL
// beyond their width.
func colFlatten(batches []*colBatch, ar *batchArena) *colBatch {
	if len(batches) == 1 {
		return batches[0]
	}
	total, width := 0, 0
	for _, b := range batches {
		total += b.len()
		if b != nil && len(b.cols) > width {
			width = len(b.cols)
		}
	}
	if total == 0 {
		return nil
	}
	out := &colBatch{n: total, cols: make([]column, width)}
	for j := 0; j < width; j++ {
		// Unify the column kind across inputs; mixed kinds fall back to any.
		kind := colNull
		for _, b := range batches {
			if b == nil || b.len() == 0 || j >= len(b.cols) {
				continue
			}
			k := b.cols[j].kind
			if k == colNull {
				continue
			}
			if kind == colNull {
				kind = k
			} else if kind != k {
				kind = colAny
				break
			}
		}
		if kind == colNull {
			continue
		}
		w := newColBuilder(kind, total, ar)
		for _, b := range batches {
			n := b.len()
			if n == 0 {
				continue
			}
			if j >= len(b.cols) {
				for i := 0; i < n; i++ {
					w.appendNull()
				}
				continue
			}
			if b.sel != nil {
				w.appendFrom(&b.cols[j], b.sel)
			} else {
				w.appendFrom(&b.cols[j], identSel(ar, n))
			}
		}
		out.cols[j] = w.build()
	}
	return out
}

// identSel returns the identity selection [0..n).
func identSel(ar *batchArena, n int) []int32 {
	s := selScratch(ar, n)
	for i := 0; i < n; i++ {
		s = append(s, int32(i))
	}
	return s
}

// colFromRows builds a batch from generated rows using the schema's physical
// kinds as typed-storage hints; cells that do not match their hint demote the
// column to the any fallback. Missing trailing cells (rows shorter than the
// widest) read as NULL.
func colFromRows(rows []etl.Row, kinds []etl.ValueKind) *colBatch {
	width := len(kinds)
	for _, r := range rows {
		if len(r) > width {
			width = len(r)
		}
	}
	b := &colBatch{n: len(rows), cols: make([]column, width)}
	for j := 0; j < width; j++ {
		hint := etl.KindAny
		if j < len(kinds) {
			hint = kinds[j]
		}
		b.cols[j] = columnFromRows(rows, j, hint)
	}
	return b
}

func inferKind(rows []etl.Row, j int) colKind {
	for _, r := range rows {
		if j >= len(r) || r[j] == nil {
			continue
		}
		switch r[j].(type) {
		case int64:
			return colInt
		case float64:
			return colFloat
		case string:
			return colStr
		case bool:
			return colBool
		default:
			return colAny
		}
	}
	return colNull
}

func hintKind(h etl.ValueKind) colKind {
	switch h {
	case etl.KindInt64:
		return colInt
	case etl.KindFloat64:
		return colFloat
	case etl.KindString:
		return colStr
	case etl.KindBool:
		return colBool
	default:
		return colAny
	}
}

func columnFromRows(rows []etl.Row, j int, hint etl.ValueKind) column {
	kind := hintKind(hint)
	if kind == colAny {
		kind = inferKind(rows, j)
	}
	if kind == colNull {
		return column{kind: colNull}
	}
	if kind == colAny {
		return anyColumnFromRows(rows, j)
	}
	c := column{kind: kind}
	switch kind {
	case colInt:
		c.ints = make([]int64, len(rows))
	case colFloat:
		c.floats = make([]float64, len(rows))
	case colStr:
		c.strs = make([]string, len(rows))
	case colBool:
		c.bools = make([]bool, len(rows))
	}
	for i, r := range rows {
		if j >= len(r) || r[j] == nil {
			if c.nulls == nil {
				c.nulls = make([]uint64, nullWords(len(rows)))
			}
			setBit(c.nulls, i)
			continue
		}
		ok := false
		switch kind {
		case colInt:
			var v int64
			v, ok = r[j].(int64)
			c.ints[i] = v
		case colFloat:
			var v float64
			v, ok = r[j].(float64)
			c.floats[i] = v
		case colStr:
			var v string
			v, ok = r[j].(string)
			c.strs[i] = v
		case colBool:
			var v bool
			v, ok = r[j].(bool)
			c.bools[i] = v
		}
		if !ok {
			return anyColumnFromRows(rows, j)
		}
	}
	return c
}

func anyColumnFromRows(rows []etl.Row, j int) column {
	vals := make([]etl.Value, len(rows))
	for i, r := range rows {
		if j < len(r) {
			vals[i] = r[j]
		}
	}
	return column{kind: colAny, anys: vals}
}

// ---------------------------------------------------------------------------
// Quality measurement: measureColumns counts what a row-wise scan would, cell
// for cell, without materializing rows.

func (b *colBatch) nullCountAt(j int) int {
	n := b.len()
	if j < 0 || j >= len(b.cols) {
		return n
	}
	c := &b.cols[j]
	switch c.kind {
	case colNull:
		return n
	case colAny:
		cnt := 0
		for i := 0; i < n; i++ {
			if c.anys[b.phys(i)] == nil {
				cnt++
			}
		}
		return cnt
	default:
		if c.nulls == nil {
			return 0
		}
		if b.sel == nil {
			cnt := 0
			for _, wd := range c.nulls {
				cnt += bits.OnesCount64(wd)
			}
			return cnt
		}
		cnt := 0
		for _, p := range b.sel {
			if c.nulls[p>>6]&(1<<(uint(p)&63)) != 0 {
				cnt++
			}
		}
		return cnt
	}
}

// markErroneous sets bad[i] for logical rows whose cell in this column is an
// injected defect (the data.IsErroneous oracle, specialized per kind).
func (c *column) markErroneous(b *colBatch, bad []bool) {
	n := b.len()
	switch c.kind {
	case colInt:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				if v := c.ints[p]; v <= -1_000_000 || v == -1 {
					bad[i] = true
				}
			}
		}
	case colFloat:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) && c.floats[p] <= -1e9 {
				bad[i] = true
			}
		}
	case colStr:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) && strings.HasPrefix(c.strs[p], data.ErrMarker) {
				bad[i] = true
			}
		}
	case colAny:
		for i := 0; i < n; i++ {
			if data.IsErroneous(c.anys[b.phys(i)]) {
				bad[i] = true
			}
		}
	}
}

func schemaKeyPositions(s etl.Schema) []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Key {
			out = append(out, i)
		}
	}
	return out
}

// measureColumns counts the NULL cells, erroneous rows and duplicate keys of
// the batch's logical rows against the schema, by per-column scans.
func measureColumns(schema etl.Schema, b *colBatch) data.Stats {
	n := b.len()
	if n == 0 {
		return data.Stats{}
	}
	st := data.Stats{Rows: n}
	for i := range schema.Attrs {
		st.NullCells += b.nullCountAt(i)
	}
	if n > 0 {
		bad := make([]bool, n)
		for j := range b.cols {
			b.cols[j].markErroneous(b, bad)
		}
		for _, x := range bad {
			if x {
				st.Errors++
			}
		}
		if keyPos := schemaKeyPositions(schema); len(keyPos) > 0 {
			hashes := make([]uint64, n)
			b.keyHashes(keyPos, hashes)
			t := newGroupTable(b, keyPos, n)
			for i := 0; i < n; i++ {
				if !t.insert(int32(b.phys(i)), hashes[i]) {
					st.Duplicates++
				}
			}
		}
	}
	return st
}

// ---------------------------------------------------------------------------
// Typed scratch: arena-backed during full executions, freshly allocated when
// results may be retained by an EvalCache (ar == nil).

func selScratch(ar *batchArena, n int) []int32 {
	if ar != nil {
		return ar.sels.get(n)
	}
	return make([]int32, 0, n)
}

// u64Scratch returns a length-n buffer; callers overwrite every element.
func u64Scratch(ar *batchArena, n int) []uint64 {
	if ar != nil {
		b := ar.u64s.get(n)
		return b[:n]
	}
	return make([]uint64, n)
}

func i64Scratch(ar *batchArena, n int) []int64 {
	if ar != nil {
		return ar.i64s.get(n)
	}
	return make([]int64, 0, n)
}

func f64Scratch(ar *batchArena, n int) []float64 {
	if ar != nil {
		return ar.f64s.get(n)
	}
	return make([]float64, 0, n)
}

func strScratch(ar *batchArena, n int) []string {
	if ar != nil {
		return ar.strs.get(n)
	}
	return make([]string, 0, n)
}

func boolScratch(ar *batchArena, n int) []bool {
	if ar != nil {
		return ar.bools.get(n)
	}
	return make([]bool, 0, n)
}

func anyScratch(ar *batchArena, n int) []etl.Value {
	if ar != nil {
		return ar.anys.get(n)
	}
	return make([]etl.Value, 0, n)
}

// zeroedBools returns an all-false length-n buffer.
func zeroedBools(ar *batchArena, n int) []bool {
	if ar == nil {
		return make([]bool, n)
	}
	b := ar.bools.get(n)[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// zeroedFloats returns an all-zero length-n buffer.
func zeroedFloats(ar *batchArena, n int) []float64 {
	if ar == nil {
		return make([]float64, n)
	}
	b := ar.f64s.get(n)[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// markNullRows sets dst[i] for logical rows whose cell in column j is NULL.
func (b *colBatch) markNullRows(j int, dst []bool) {
	n := b.len()
	if j < 0 || j >= len(b.cols) {
		for i := 0; i < n; i++ {
			dst[i] = true
		}
		return
	}
	c := &b.cols[j]
	switch c.kind {
	case colNull:
		for i := 0; i < n; i++ {
			dst[i] = true
		}
	case colAny:
		for i := 0; i < n; i++ {
			if c.anys[b.phys(i)] == nil {
				dst[i] = true
			}
		}
	default:
		if c.nulls == nil {
			return
		}
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if c.nulls[p>>6]&(1<<(uint(p)&63)) != 0 {
				dst[i] = true
			}
		}
	}
}

// addNumeric adds column j's non-NULL numeric cells into the per-logical-row
// accumulator — the columnar half of computeDerived.
func (b *colBatch) addNumeric(j int, acc []float64) {
	if j < 0 || j >= len(b.cols) {
		return
	}
	c := &b.cols[j]
	n := b.len()
	switch c.kind {
	case colInt:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				acc[i] += float64(c.ints[p])
			}
		}
	case colFloat:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				acc[i] += c.floats[p]
			}
		}
	case colAny:
		for i := 0; i < n; i++ {
			switch v := c.anys[b.phys(i)].(type) {
			case int64:
				acc[i] += float64(v)
			case float64:
				acc[i] += v
			}
		}
	}
}

// derivedColumn materializes one derived attribute from the accumulator,
// matching computeDerived value for value (including the rendered form of
// string derivations).
func derivedColumn(a etl.Attribute, acc []float64, ar *batchArena) column {
	n := len(acc)
	switch a.Type {
	case etl.TypeInt:
		vals := i64Scratch(ar, n)
		for _, x := range acc {
			vals = append(vals, int64(x))
		}
		return column{kind: colInt, ints: vals}
	case etl.TypeFloat:
		vals := f64Scratch(ar, n)
		for _, x := range acc {
			vals = append(vals, x*1.1)
		}
		return column{kind: colFloat, floats: vals}
	case etl.TypeString:
		vals := strScratch(ar, n)
		var buf [40]byte
		for _, x := range acc {
			b := append(buf[:0], 'd')
			b = strconv.AppendFloat(b, x, 'f', 0, 64)
			vals = append(vals, string(b))
		}
		return column{kind: colStr, strs: vals}
	case etl.TypeBool:
		vals := boolScratch(ar, n)
		for _, x := range acc {
			vals = append(vals, x > 0)
		}
		return column{kind: colBool, bools: vals}
	case etl.TypeDate:
		vals := i64Scratch(ar, n)
		for range acc {
			vals = append(vals, int64(17000))
		}
		return column{kind: colInt, ints: vals}
	default:
		return column{}
	}
}
