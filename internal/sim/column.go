// Columnar batch representation: the engine's data path.
//
// A batch stores one typed slice per attribute position (int64, float64,
// string, bool — with a []etl.Value fallback for mixed or unknown types) plus
// a packed null bitmap per column, built once from the binding's generated
// rows at extract. Operators run as tight per-column loops and are
// late-materialized: they communicate row subsets through selection vectors
// (a []int32 of physical row indices) instead of materializing filtered
// copies, and operators that add attributes (join, derive, surrogate) build
// only the new columns, indexed by the input's physical rows, beside the
// input's own. So a chain of filters and joins over one extract shares a
// single set of column arrays.
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

// storage is how one column holds its cells. The zero value is storeNull — a
// column of all NULLs with no backing slice — so zero-value padding columns
// are safe to read.
type storage uint8

const (
	storeNull storage = iota
	storeInt
	storeFloat
	storeStr
	storeBool
	storeAny
)

// column is one attribute position across a batch. Exactly the slice matching
// kind is populated; nulls is the packed null bitmap (bit set = NULL), nil
// when no cell is NULL. storeAny columns represent NULL as a nil element and
// carry no bitmap. Slots under a set null bit hold the zero value.
type column struct {
	kind   storage
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
	case storeNull:
		return true
	case storeAny:
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
	case storeInt:
		return c.ints[p]
	case storeFloat:
		return c.floats[p]
	case storeStr:
		return c.strs[p]
	case storeBool:
		return c.bools[p]
	case storeAny:
		return c.anys[p]
	default:
		return nil
	}
}

// batch is one logical stream of rows in columnar form. n is the physical
// row count (the length of every column); sel, when non-nil, is the selection
// vector: the batch's logical rows are sel's physical indices, in order.
// Batches share column storage freely and never mutate it — operators
// narrow a batch with a new selection vector, add new columns indexed by
// physical row, or both. Physical rows outside the selection may hold any
// value in added columns; nothing reads them.
type batch struct {
	cols []column
	n    int
	sel  []int32
}

// len is the logical row count; a nil batch is empty.
func (b *batch) len() int {
	if b == nil {
		return 0
	}
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// phys maps a logical row index to its physical index.
func (b *batch) phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// withSel narrows the batch to the given physical row indices, sharing
// column storage.
func withSel(b *batch, keep []int32) *batch {
	return &batch{cols: b.cols, n: b.n, sel: keep}
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
	case storeInt:
		return cellRef{cls: cellInt, i: c.ints[p]}
	case storeFloat:
		return cellRef{cls: cellFloat, f: math.Float64bits(c.floats[p])}
	case storeStr:
		return cellRef{cls: cellStr, s: c.strs[p]}
	case storeBool:
		return cellRef{cls: cellBool, b: c.bools[p]}
	default:
		return cellOf(c.anys[p])
	}
}

// cellAt views the cell at (column j, physical row p); out-of-range columns
// are NULL, as cells beyond a row's width are for the row oracle.
func cellAt(b *batch, j, p int) cellRef {
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
func (b *batch) foldKeyHash(j int, dst []uint64) {
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
	case storeNull:
		for i := 0; i < n; i++ {
			dst[i] = (dst[i] ^ keyNullHash) * fnvPrime
		}
	case storeInt:
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
	case storeFloat:
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
	case storeStr:
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
	case storeBool:
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
func (b *batch) keyHashes(positions []int, dst []uint64) {
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
func (b *batch) selectHashes(dst []uint64) {
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
	case storeNull:
		for i := 0; i < n; i++ {
			dst[i] = hashOrdinal(i)
		}
	case storeInt:
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
	case storeFloat:
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
	case storeStr:
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
	case storeBool:
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

func (b *batch) keyEqualAt(p, q int, positions []int) bool {
	for _, j := range positions {
		if !cellEqual(cellAt(b, j, p), cellAt(b, j, q)) {
			return false
		}
	}
	return true
}

// keyTable is a chained hash table from key hashes to physical rows, the
// storage shared by the group and join tables. Buckets are picked by the top
// bits of the hash; heads holds, per bucket, 1 + its newest entry (0 when
// empty) and next chains each entry to the one inserted before it. Callers
// verify keys by typed equality, so colliding hashes never merge distinct
// keys. A table lives in a batchArena and is cleared and reused by the next
// kernel.
type keyTable struct {
	shift uint
	heads []int32
	next  []int32
	hash  []uint64
	row   []int32
}

// reset empties the table and sizes it for up to n entries at load <= 1/2.
func (t *keyTable) reset(n int) {
	lg := 1
	for 1<<lg < 2*n {
		lg++
	}
	size := 1 << lg
	if cap(t.heads) < size {
		t.heads = make([]int32, size)
	} else {
		t.heads = t.heads[:size]
		clear(t.heads)
	}
	t.shift = uint(64 - lg)
	t.next, t.hash, t.row = t.next[:0], t.hash[:0], t.row[:0]
}

// first returns 1 + the newest entry of h's bucket, 0 when it is empty.
func (t *keyTable) first(h uint64) int32 { return t.heads[h>>t.shift] }

func (t *keyTable) add(h uint64, p int32) {
	b := h >> t.shift
	t.next = append(t.next, t.heads[b])
	t.hash = append(t.hash, h)
	t.row = append(t.row, p)
	t.heads[b] = int32(len(t.row))
}

// groupTable deduplicates rows of one batch by key positions in first-seen
// order.
type groupTable struct {
	keyTable
	b   *batch
	pos []int
}

// insert reports whether physical row p is the first occurrence of its key.
func (t *groupTable) insert(p int32, h uint64) bool {
	for e := t.first(h); e != 0; e = t.next[e-1] {
		if t.hash[e-1] == h && t.b.keyEqualAt(int(p), int(t.row[e-1]), t.pos) {
			return false
		}
	}
	t.add(h, p)
	return true
}

// firstByKey keeps the first logical row of every distinct key — the shared
// kernel of dedup and aggregate (and the duplicate count of measureColumns).
func firstByKey(b *batch, positions []int, ar *batchArena) *batch {
	n := b.len()
	if n == 0 {
		return b
	}
	hashes := ar.hashes(n)
	b.keyHashes(positions, hashes)
	t := ar.groupTable(b, positions, n)
	keep := ar.idx(n)
	for i := 0; i < n; i++ {
		p := int32(b.phys(i))
		if t.insert(p, hashes[i]) {
			keep = append(keep, p)
		}
	}
	return withSel(b, ownedSel(keep))
}

// crossKeyEqual compares left row lp (at lpos) with right row rp (at rpos).
func crossKeyEqual(lb *batch, lp int, lpos []int, rb *batch, rp int, rpos []int) bool {
	for k := range lpos {
		if !cellEqual(cellAt(lb, lpos[k], lp), cellAt(rb, rpos[k], rp)) {
			return false
		}
	}
	return true
}

// joinTable indexes the right batch by key; like the row oracle's map build,
// the last right row wins for duplicate keys. The table holds one entry per
// distinct key.
type joinTable struct {
	keyTable
	left, right *batch
	lpos, rpos  []int
}

func (t *joinTable) put(p int32, h uint64) {
	for e := t.first(h); e != 0; e = t.next[e-1] {
		if t.hash[e-1] == h && t.right.keyEqualAt(int(p), int(t.row[e-1]), t.rpos) {
			t.row[e-1] = p
			return
		}
	}
	t.add(h, p)
}

func (t *joinTable) get(lp int32, h uint64) (int32, bool) {
	for e := t.first(h); e != 0; e = t.next[e-1] {
		if q := t.row[e-1]; t.hash[e-1] == h && crossKeyEqual(t.left, int(lp), t.lpos, t.right, int(q), t.rpos) {
			return q, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Building, gathering, flattening, conversion.

// columnBuilder accumulates one output column cell by cell. Every appended cell
// consumes one slot (nulls append the zero value), so slots and bitmap stay
// aligned and no stale scratch value is ever observable.
type columnBuilder struct {
	col   column
	n     int
	total int
}

func newColumnBuilder(kind storage, total int) *columnBuilder {
	w := &columnBuilder{col: column{kind: kind}, total: total}
	switch kind {
	case storeInt:
		w.col.ints = make([]int64, 0, total)
	case storeFloat:
		w.col.floats = make([]float64, 0, total)
	case storeStr:
		w.col.strs = make([]string, 0, total)
	case storeBool:
		w.col.bools = make([]bool, 0, total)
	case storeAny:
		w.col.anys = make([]etl.Value, 0, total)
	}
	return w
}

func (w *columnBuilder) markNull() {
	if w.col.kind == storeAny || w.col.kind == storeNull {
		return
	}
	if w.col.nulls == nil {
		w.col.nulls = make([]uint64, nullWords(w.total))
	}
	setBit(w.col.nulls, w.n)
}

func (w *columnBuilder) appendNull() {
	w.markNull()
	switch w.col.kind {
	case storeInt:
		w.col.ints = append(w.col.ints, 0)
	case storeFloat:
		w.col.floats = append(w.col.floats, 0)
	case storeStr:
		w.col.strs = append(w.col.strs, "")
	case storeBool:
		w.col.bools = append(w.col.bools, false)
	case storeAny:
		w.col.anys = append(w.col.anys, nil)
	}
	w.n++
}

// appendFrom appends cells idx (physical indices) of source column c. The
// source must either match the builder's kind, be all-NULL, or the builder
// must be storeAny.
func (w *columnBuilder) appendFrom(c *column, idx []int32) {
	if c.kind == w.col.kind && c.kind != storeAny && c.kind != storeNull {
		for _, p := range idx {
			if c.nullAt(int(p)) {
				w.appendNull()
				continue
			}
			switch w.col.kind {
			case storeInt:
				w.col.ints = append(w.col.ints, c.ints[p])
			case storeFloat:
				w.col.floats = append(w.col.floats, c.floats[p])
			case storeStr:
				w.col.strs = append(w.col.strs, c.strs[p])
			case storeBool:
				w.col.bools = append(w.col.bools, c.bools[p])
			}
			w.n++
		}
		return
	}
	if c.kind == storeNull {
		for range idx {
			w.appendNull()
		}
		return
	}
	// Fallback: box through values (builder is storeAny, or kinds diverged).
	for _, p := range idx {
		v := c.value(int(p))
		if v == nil {
			w.appendNull()
			continue
		}
		w.col.anys = append(w.col.anys, v)
		w.n++
	}
}

func (w *columnBuilder) build() column { return w.col }

// scatterColumn builds an n-row column whose cell at physical row to[k] is
// c's cell at physical row from[k], NULL where from[k] < 0. Rows no to[k]
// names keep the zero value: they lie outside the selection vector of the
// batch the column joins, so no kernel reads them.
func scatterColumn(c *column, to, from []int32, n int) column {
	out := column{kind: c.kind}
	switch c.kind {
	case storeNull:
		return out
	case storeInt:
		out.ints = scatter(make([]int64, n), c.ints, to, from)
	case storeFloat:
		out.floats = scatter(make([]float64, n), c.floats, to, from)
	case storeStr:
		out.strs = scatter(make([]string, n), c.strs, to, from)
	case storeBool:
		out.bools = scatter(make([]bool, n), c.bools, to, from)
	case storeAny:
		// A nil element is NULL: unmatched rows need no bitmap.
		out.anys = scatter(make([]etl.Value, n), c.anys, to, from)
		return out
	}
	for k, q := range from {
		if q < 0 || c.nullAt(int(q)) {
			if out.nulls == nil {
				out.nulls = make([]uint64, nullWords(n))
			}
			setBit(out.nulls, int(to[k]))
		}
	}
	return out
}

// scatter copies src[from[k]] to dst[to[k]] for every from[k] >= 0. A NULL
// source slot holds the zero value, so the copy keeps that invariant.
func scatter[T any](dst, src []T, to, from []int32) []T {
	for k, q := range from {
		if q >= 0 {
			dst[to[k]] = src[q]
		}
	}
	return dst
}

// flatten merges output batches into one logical stream; a single batch is
// returned as-is (selection intact). Multi-input merges pad narrower batches
// with NULL columns, mirroring how the row oracle's ragged rows read as NULL
// beyond their width.
func flatten(batches []*batch, ar *batchArena) *batch {
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
	out := &batch{n: total, cols: make([]column, width)}
	for j := 0; j < width; j++ {
		// Unify the column kind across inputs; mixed kinds fall back to any.
		kind := storeNull
		for _, b := range batches {
			if b == nil || b.len() == 0 || j >= len(b.cols) {
				continue
			}
			k := b.cols[j].kind
			if k == storeNull {
				continue
			}
			if kind == storeNull {
				kind = k
			} else if kind != k {
				kind = storeAny
				break
			}
		}
		if kind == storeNull {
			continue
		}
		w := newColumnBuilder(kind, total)
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
				w.appendFrom(&b.cols[j], ar.identSel(n))
			}
		}
		out.cols[j] = w.build()
	}
	return out
}

// batchFromRows builds a batch from generated rows using the schema's physical
// kinds as typed-storage hints; cells that do not match their hint demote the
// column to the any fallback. Missing trailing cells (rows shorter than the
// widest) read as NULL.
func batchFromRows(rows []etl.Row, kinds []etl.ValueKind) *batch {
	width := len(kinds)
	for _, r := range rows {
		if len(r) > width {
			width = len(r)
		}
	}
	b := &batch{n: len(rows), cols: make([]column, width)}
	for j := 0; j < width; j++ {
		hint := etl.KindAny
		if j < len(kinds) {
			hint = kinds[j]
		}
		b.cols[j] = columnFromRows(rows, j, hint)
	}
	return b
}

func inferKind(rows []etl.Row, j int) storage {
	for _, r := range rows {
		if j >= len(r) || r[j] == nil {
			continue
		}
		switch r[j].(type) {
		case int64:
			return storeInt
		case float64:
			return storeFloat
		case string:
			return storeStr
		case bool:
			return storeBool
		default:
			return storeAny
		}
	}
	return storeNull
}

func hintKind(h etl.ValueKind) storage {
	switch h {
	case etl.KindInt64:
		return storeInt
	case etl.KindFloat64:
		return storeFloat
	case etl.KindString:
		return storeStr
	case etl.KindBool:
		return storeBool
	default:
		return storeAny
	}
}

func columnFromRows(rows []etl.Row, j int, hint etl.ValueKind) column {
	kind := hintKind(hint)
	if kind == storeAny {
		kind = inferKind(rows, j)
	}
	if kind == storeNull {
		return column{kind: storeNull}
	}
	if kind == storeAny {
		return anyColumnFromRows(rows, j)
	}
	c := column{kind: kind}
	switch kind {
	case storeInt:
		c.ints = make([]int64, len(rows))
	case storeFloat:
		c.floats = make([]float64, len(rows))
	case storeStr:
		c.strs = make([]string, len(rows))
	case storeBool:
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
		case storeInt:
			var v int64
			v, ok = r[j].(int64)
			c.ints[i] = v
		case storeFloat:
			var v float64
			v, ok = r[j].(float64)
			c.floats[i] = v
		case storeStr:
			var v string
			v, ok = r[j].(string)
			c.strs[i] = v
		case storeBool:
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
	return column{kind: storeAny, anys: vals}
}

// ---------------------------------------------------------------------------
// Quality measurement: measureColumns counts what a row-wise scan would, cell
// for cell, without materializing rows.

func (b *batch) nullCountAt(j int) int {
	n := b.len()
	if j < 0 || j >= len(b.cols) {
		return n
	}
	c := &b.cols[j]
	switch c.kind {
	case storeNull:
		return n
	case storeAny:
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
func (c *column) markErroneous(b *batch, bad []bool) {
	n := b.len()
	switch c.kind {
	case storeInt:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				if v := c.ints[p]; v <= -1_000_000 || v == -1 {
					bad[i] = true
				}
			}
		}
	case storeFloat:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) && c.floats[p] <= -1e9 {
				bad[i] = true
			}
		}
	case storeStr:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) && strings.HasPrefix(c.strs[p], data.ErrMarker) {
				bad[i] = true
			}
		}
	case storeAny:
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
func measureColumns(schema etl.Schema, b *batch, ar *batchArena) data.Stats {
	n := b.len()
	if n == 0 {
		return data.Stats{}
	}
	st := data.Stats{Rows: n}
	for i := range schema.Attrs {
		st.NullCells += b.nullCountAt(i)
	}
	if n > 0 {
		bad := ar.zeroedBools(n)
		for j := range b.cols {
			b.cols[j].markErroneous(b, bad)
		}
		for _, x := range bad {
			if x {
				st.Errors++
			}
		}
		if keyPos := schemaKeyPositions(schema); len(keyPos) > 0 {
			hashes := ar.hashes(n)
			b.keyHashes(keyPos, hashes)
			t := ar.groupTable(b, keyPos, n)
			for i := 0; i < n; i++ {
				if !t.insert(int32(b.phys(i)), hashes[i]) {
					st.Duplicates++
				}
			}
		}
	}
	return st
}

// ownedSel copies a selection vector built in arena scratch into a fresh,
// exactly sized slice that may outlive the kernel. It is never nil: an empty
// selection keeps no rows, while a nil one would keep them all.
func ownedSel(keep []int32) []int32 {
	out := make([]int32, len(keep))
	copy(out, keep)
	return out
}

// markNullRows sets dst[i] for logical rows whose cell in column j is NULL.
func (b *batch) markNullRows(j int, dst []bool) {
	n := b.len()
	if j < 0 || j >= len(b.cols) {
		for i := 0; i < n; i++ {
			dst[i] = true
		}
		return
	}
	c := &b.cols[j]
	switch c.kind {
	case storeNull:
		for i := 0; i < n; i++ {
			dst[i] = true
		}
	case storeAny:
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

// sumNumeric adds column j's non-NULL numeric cells of the logical rows into
// acc, indexed by physical row — the columnar half of computeDerived.
func (b *batch) sumNumeric(j int, acc []float64) {
	if j < 0 || j >= len(b.cols) {
		return
	}
	c := &b.cols[j]
	n := b.len()
	switch c.kind {
	case storeInt:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				acc[p] += float64(c.ints[p])
			}
		}
	case storeFloat:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if !c.nullAt(p) {
				acc[p] += c.floats[p]
			}
		}
	case storeAny:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			switch v := c.anys[p].(type) {
			case int64:
				acc[p] += float64(v)
			case float64:
				acc[p] += v
			}
		}
	}
}

// deriveColumn builds one derived attribute of the batch's logical rows from
// the physically indexed accumulator, matching computeDerived value for
// value (including the rendered form of string derivations). Physical rows
// outside the selection keep the zero value.
func (b *batch) deriveColumn(a etl.Attribute, acc []float64) column {
	n := b.len()
	switch a.Type {
	case etl.TypeInt:
		vals := make([]int64, b.n)
		for i := 0; i < n; i++ {
			p := b.phys(i)
			vals[p] = int64(acc[p])
		}
		return column{kind: storeInt, ints: vals}
	case etl.TypeFloat:
		vals := make([]float64, b.n)
		for i := 0; i < n; i++ {
			p := b.phys(i)
			vals[p] = acc[p] * 1.1
		}
		return column{kind: storeFloat, floats: vals}
	case etl.TypeString:
		vals := make([]string, b.n)
		var buf [40]byte
		for i := 0; i < n; i++ {
			p := b.phys(i)
			s := append(buf[:0], 'd')
			s = strconv.AppendFloat(s, acc[p], 'f', 0, 64)
			vals[p] = string(s)
		}
		return column{kind: storeStr, strs: vals}
	case etl.TypeBool:
		vals := make([]bool, b.n)
		for i := 0; i < n; i++ {
			p := b.phys(i)
			vals[p] = acc[p] > 0
		}
		return column{kind: storeBool, bools: vals}
	case etl.TypeDate:
		vals := make([]int64, b.n)
		for i := 0; i < n; i++ {
			vals[b.phys(i)] = 17000
		}
		return column{kind: storeInt, ints: vals}
	default:
		return column{}
	}
}
