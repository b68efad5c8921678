// Package sim executes ETL flows on synthetic data and produces the run
// traces that the quality measures consume. It substitutes the runtime
// monitoring infrastructure of the POIESIS deployment: the paper's dynamic
// measures are "obtained from analysis of historical traces capturing the
// runtime behaviour of ETL components", and this engine generates those
// traces deterministically.
//
// The engine separates the deterministic data path (executed once per design)
// from the stochastic failure path (sampled many times per design via
// Monte-Carlo), so evaluating reliability over N runs does not re-execute
// the row pipeline N times.
//
// For the planner's explore loop — thousands of alternatives that each differ
// from a parent flow by a single pattern application — the engine supports
// delta evaluation: ExecuteDeltaStats memoizes every node's materialized
// output in an EvalCache keyed by the node's data identity
// (etl.Graph.ConeKeys), which hashes exactly what the data path reads, so a
// candidate flow re-simulates only the nodes whose inputs or data-relevant
// settings the application changed and splices cached results in everywhere
// else.
//
// Pass-through operations (etl.OpKind.IsPassThrough: checkpoint, convert,
// encrypt, sort, split, partition, merge, union, noop) with one input are
// forwarded on every path, cached or not: the node's output is the stream
// routed to it, which is exactly what its kernel would return, so no kernel
// runs and nothing is looked up or stored. Their key is their input's, so a
// checkpoint inserted on an edge, or a schedule or resource setting on the
// first source, leaves every node below it a cache hit.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// Binding connects the extract operations of a flow to synthetic sources.
// Keys are node IDs of OpExtract nodes; missing bindings get a default
// source derived from the node's output schema.
type Binding map[etl.NodeID]data.SourceSpec

// Config tunes the engine.
type Config struct {
	// DefaultRows is the cardinality used for extract nodes without an
	// explicit binding.
	DefaultRows int
	// Seed drives defect injection for unbound sources and failure
	// sampling.
	Seed uint64
	// RetryBudget is how many operation failures a run may absorb before it
	// is declared failed.
	RetryBudget int
	// Runs is the Monte-Carlo sample size for failure behaviour.
	Runs int
	// PipelineOverlap in [0,1] models how much of a non-blocking operation's
	// busy time overlaps with its upstream producer (1 = perfect pipelining,
	// 0 = staged execution). Blocking operations never overlap.
	PipelineOverlap float64
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config {
	return Config{
		DefaultRows:     5000,
		Seed:            1,
		RetryBudget:     8,
		Runs:            64,
		PipelineOverlap: 0.7,
	}
}

// Profile is the deterministic execution profile of one flow: per-node
// timings and cardinalities plus output data quality. The failure sampler
// and the measures both read it.
//
// Per-node values are stored in dense slices indexed by the node's position
// in Order (the topological order of the flow), not in maps: the planner
// builds one profile per alternative, and the dense layout removes a map
// allocation and hashing per node per field. IndexOf (and the *Of
// accessors) address a node by ID with a scan of Order.
type Profile struct {
	Flow  string
	Order []etl.NodeID

	// RowsIn and RowsOut are per-node input/output cardinalities, indexed by
	// topo position (aligned with Order).
	RowsIn  []int
	RowsOut []int
	// TimeMs is the busy time of each node (startup + per-tuple work over
	// parallelism).
	TimeMs []float64
	// Completion is the finish time of each node under the (partially
	// pipelined) stage model.
	Completion []float64
	// RestartMs is, per node, the re-execution time needed when the node
	// fails: time back to the nearest upstream savepoint (or the sources).
	RestartMs []float64
	// RestartFromCheckpoint marks nodes whose recovery starts at a savepoint.
	RestartFromCheckpoint []bool

	// FirstPassMs is the failure-free makespan.
	FirstPassMs float64
	// LatencyPerTupleMs is the per-tuple latency along the critical path.
	LatencyPerTupleMs float64

	RowsLoaded int
	// Output quality at the sinks.
	OutRows      int
	OutNullCells int
	OutCells     int
	OutDupRows   int
	OutErrRows   int

	// MemRowsPeak is the largest materialisation by a blocking operation.
	MemRowsPeak int
}

func newProfile(flow string, order []etl.NodeID) *Profile {
	nn := len(order)
	return &Profile{
		Flow:                  flow,
		Order:                 order,
		RowsIn:                make([]int, nn),
		RowsOut:               make([]int, nn),
		TimeMs:                make([]float64, nn),
		Completion:            make([]float64, nn),
		RestartMs:             make([]float64, nn),
		RestartFromCheckpoint: make([]bool, nn),
	}
}

// IndexOf returns the topo position of the node in the profile's Order, or
// -1 when the node is unknown.
func (p *Profile) IndexOf(id etl.NodeID) int { return slices.Index(p.Order, id) }

// valueOf returns vals[IndexOf(id)], or the zero value for unknown IDs.
func valueOf[T any](p *Profile, vals []T, id etl.NodeID) T {
	if i := p.IndexOf(id); i >= 0 {
		return vals[i]
	}
	var zero T
	return zero
}

// RowsInOf returns the input cardinality of the node, 0 for unknown IDs.
func (p *Profile) RowsInOf(id etl.NodeID) int { return valueOf(p, p.RowsIn, id) }

// RowsOutOf returns the output cardinality of the node, 0 for unknown IDs.
func (p *Profile) RowsOutOf(id etl.NodeID) int { return valueOf(p, p.RowsOut, id) }

// CompletionOf returns the completion time of the node, 0 for unknown IDs.
func (p *Profile) CompletionOf(id etl.NodeID) float64 { return valueOf(p, p.Completion, id) }

// RestartOf returns the recovery re-execution time of the node, 0 for
// unknown IDs.
func (p *Profile) RestartOf(id etl.NodeID) float64 { return valueOf(p, p.RestartMs, id) }

// RestartsFromCheckpoint reports whether the node recovers from a savepoint.
func (p *Profile) RestartsFromCheckpoint(id etl.NodeID) bool {
	return valueOf(p, p.RestartFromCheckpoint, id)
}

// Engine executes flows. Besides its configuration it holds only a memo of
// the failure patterns Sample has drawn (see failuresOf), which depends on
// nothing but that configuration; methods are safe for concurrent use with
// distinct arguments.
type Engine struct {
	cfg      Config
	failures failureMemo
}

// NewEngine returns an engine with the given configuration. It executes flows
// over typed column batches with selection vectors and column-wise hashing
// (see column.go).
func NewEngine(cfg Config) *Engine {
	if cfg.DefaultRows <= 0 {
		cfg.DefaultRows = 1000
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 32
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 8
	}
	if cfg.PipelineOverlap < 0 {
		cfg.PipelineOverlap = 0
	}
	if cfg.PipelineOverlap > 1 {
		cfg.PipelineOverlap = 1
	}
	return &Engine{cfg: cfg}
}

// subPool recycles backing arrays of one element type inside a batchArena.
// get hands out zero-length buffers; reset makes every buffer reusable.
type subPool[T any] struct {
	bufs [][]T
	next int
}

// get returns a zero-length buffer with at least the given capacity,
// reusing a pooled backing array when one is large enough.
func (p *subPool[T]) get(n int) []T {
	for i := p.next; i < len(p.bufs); i++ {
		if cap(p.bufs[i]) >= n {
			p.bufs[i], p.bufs[p.next] = p.bufs[p.next], p.bufs[i]
			b := p.bufs[p.next][:0]
			p.next++
			return b
		}
	}
	b := make([]T, 0, n)
	p.bufs = append(p.bufs, b)
	last := len(p.bufs) - 1
	p.bufs[last], p.bufs[p.next] = p.bufs[p.next], p.bufs[last]
	p.next++
	return b
}

func (p *subPool[T]) reset() { p.next = 0 }

// batchArena holds the scratch of one execution: buffers that never escape
// the kernel that takes them — key and routing hashes, join index vectors,
// identity selections, per-row marks and accumulators — plus one group table
// and one join table, cleared and reused by each kernel. Nothing a kernel
// returns lives here, because node outputs outlive the execution in the
// EvalCache: a kernel's output either shares its input's columns (and then
// its selection vector, or a fresh copy of one built here, see ownedSel) or
// adds freshly allocated columns. Every execution borrows an arena from a
// sync.Pool, resets it before each node and returns it when the profile has
// been assembled, so steady-state evaluation allocates no temporaries.
type batchArena struct {
	i32s   subPool[int32]
	u64s   subPool[uint64]
	f64s   subPool[float64]
	bools  subPool[bool]
	groups groupTable
	joins  joinTable
}

var arenaPool = sync.Pool{New: func() any { return &batchArena{} }}

// reset makes every buffer reusable and drops the tables' batch references.
func (a *batchArena) reset() {
	a.i32s.reset()
	a.u64s.reset()
	a.f64s.reset()
	a.bools.reset()
	a.groups.b = nil
	a.joins.left, a.joins.right = nil, nil
}

// release resets the arena and returns it to the pool.
func (a *batchArena) release() {
	a.reset()
	arenaPool.Put(a)
}

// idx returns a zero-length index buffer with capacity n.
func (a *batchArena) idx(n int) []int32 { return a.i32s.get(n) }

// identSel returns the identity selection [0..n).
func (a *batchArena) identSel(n int) []int32 {
	s := a.i32s.get(n)
	for i := 0; i < n; i++ {
		s = append(s, int32(i))
	}
	return s
}

// hashes returns a length-n buffer; callers overwrite every element.
func (a *batchArena) hashes(n int) []uint64 { return a.u64s.get(n)[:n] }

// zeroedBools returns an all-false length-n buffer.
func (a *batchArena) zeroedBools(n int) []bool {
	b := a.bools.get(n)[:n]
	clear(b)
	return b
}

// zeroedFloats returns an all-zero length-n buffer.
func (a *batchArena) zeroedFloats(n int) []float64 {
	b := a.f64s.get(n)[:n]
	clear(b)
	return b
}

// groupTable returns the arena's group table, emptied for up to n rows of b
// keyed by pos.
func (a *batchArena) groupTable(b *batch, pos []int, n int) *groupTable {
	t := &a.groups
	t.reset(n)
	t.b, t.pos = b, pos
	return t
}

// joinTable returns the arena's join table, emptied for up to n right rows.
func (a *batchArena) joinTable(left, right *batch, lpos, rpos []int, n int) *joinTable {
	t := &a.joins
	t.reset(n)
	t.left, t.right, t.lpos, t.rpos = left, right, lpos, rpos
	return t
}

// ExecStats reports how one execution's data path was served: ConeHits
// nodes were spliced from the cone cache, Forwarded pass-through nodes were
// handed their input stream, and Executed nodes ran a kernel; the three add
// up to Nodes. Kernels breaks the kernel runs down by operation kind. It
// lives outside Profile on purpose — profiles from delta and full
// evaluations must stay byte-identical, so bookkeeping about *how* a profile
// was obtained is returned out-of-band to callers that ask (the planner's
// tracing instrumentation). The counters accumulate across executions.
type ExecStats struct {
	Nodes     int // nodes in the flow
	ConeHits  int // nodes served from the cone cache
	Forwarded int // pass-through nodes handed their single input's stream
	Executed  int // nodes whose kernel ran

	// Kernels aggregates the kernel runs, indexed by etl.OpKind.
	Kernels [etl.NumOpKinds]KernelStats

	// Clock, when set, times every kernel run into Kernels[kind].Nanos.
	// The simulator never reads the wall clock itself: its results must
	// not depend on it.
	Clock func() time.Time
}

// KernelStats aggregates the kernel runs of one operation kind.
type KernelStats struct {
	Count   int   // kernel runs
	RowsIn  int64 // rows the kernels consumed
	RowsOut int64 // rows the kernels produced, before routing
	Nanos   int64 // wall-clock time inside the kernels, when timed by Clock
}

// Execute runs the data path of the flow once and returns its profile.
func (e *Engine) Execute(g *etl.Graph, bind Binding) (*Profile, error) {
	return e.ExecuteDeltaStats(g, bind, nil, nil)
}

// finishNode derives the routing-dependent profile values of node i from its
// flattened output cardinality. Both the full and the cached path go through
// this single formula, which is what makes delta profiles byte-identical to
// full ones: timing is always recomputed from the concrete graph (so cached
// rows can be shared across designs that differ only in cost parameters).
func (e *Engine) finishNode(p *Profile, n *etl.Node, i, flat, nsucc int) {
	totalOut := flat
	if nsucc > 1 && !n.RoutesByPort(nsucc) {
		// Copy semantics: every successor receives the full stream. Port
		// routing distributes the rows instead.
		totalOut = nsucc * flat
	}
	p.RowsOut[i] = totalOut
	work := float64(p.RowsIn[i])
	if n.Kind.IsSource() {
		work = float64(totalOut)
	}
	p.TimeMs[i] = n.Cost.Startup + work*n.WorkPerTuple()
	if n.Kind.IsBlocking() && p.RowsIn[i] > p.MemRowsPeak {
		p.MemRowsPeak = p.RowsIn[i]
	}
}

// hashOrdinal seeds the row hash with the row ordinal, FNV-mixed before any
// value bytes so per-row hashes cannot be factored into a per-value hash.
func hashOrdinal(i int) uint64 {
	h := uint64(1469598103934665603)
	h ^= uint64(i)
	h *= 1099511628211
	return h
}

// Type tags folded into the hash for values outside the fast paths, so two
// distinct values that happen to render identically (a []byte and its string,
// a fmt.Stringer and its output) cannot collide deterministically in dedup or
// hash-partition decisions.
const (
	hashTagBytes = 0x01
	hashTagTime  = 0x02
	hashTagOther = 0x03
)

// hashValue folds one value into h. The int/float/string/bool fast paths hash
// exactly the bytes their %v rendering produces (no tag — their renderings
// cannot collide across these types in practice and changing them would
// reshuffle every simulated routing decision). Other types hash a type tag
// alongside the rendered form: []byte and time.Time explicitly, and everything
// else as tag + dynamic type + rendering.
func hashValue(h uint64, val etl.Value) uint64 {
	var buf [48]byte
	switch v := val.(type) {
	case string:
		return hashStringInto(h, v)
	case int64:
		return hashBytes(h, strconv.AppendInt(buf[:0], v, 10))
	case int:
		return hashBytes(h, strconv.AppendInt(buf[:0], int64(v), 10))
	case float64:
		return hashBytes(h, strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
	case bool:
		if v {
			return hashStringInto(h, "true")
		}
		return hashStringInto(h, "false")
	case []byte:
		h ^= hashTagBytes
		h *= 1099511628211
		return hashBytes(h, v)
	case time.Time:
		h ^= hashTagTime
		h *= 1099511628211
		return hashBytes(h, v.AppendFormat(buf[:0], time.RFC3339Nano))
	default:
		h ^= hashTagOther
		h *= 1099511628211
		// Cold fallback for dynamic types no column kind covers; never hit
		// by the typed kernels, and the rendered form is the documented
		// canonical identity (storeAny equality renders the same way).
		//lint:ignore nofmtkernel off-hot-path fallback for unknown dynamic types
		h = hashStringInto(h, fmt.Sprintf("%T", val))
		h ^= 0x00
		h *= 1099511628211
		//lint:ignore nofmtkernel off-hot-path fallback for unknown dynamic types
		return hashStringInto(h, fmt.Sprintf("%v", val))
	}
}

func hashStringInto(h uint64, s string) uint64 {
	for j := 0; j < len(s); j++ {
		h ^= uint64(s[j])
		h *= 1099511628211
	}
	return h
}

func hashBytes(h uint64, b []byte) uint64 {
	for j := 0; j < len(b); j++ {
		h ^= uint64(b[j])
		h *= 1099511628211
	}
	return h
}

// computeSchedule derives completion times under a partially pipelined stage
// model: a node may start before its producer finished when both are
// non-blocking, controlled by cfg.PipelineOverlap. slots is the graph's
// topological order as slots and pos maps a slot to its position in it.
func (e *Engine) computeSchedule(g *etl.Graph, p *Profile, slots, pos []int32) {
	for i, s := range slots {
		n := g.NodeAt(s)
		start := 0.0
		latestPred := 0.0
		for _, ps := range g.PredSlots(s) {
			pi := pos[ps]
			pc := p.Completion[pi]
			if pc > latestPred {
				latestPred = pc
			}
			if !n.Kind.IsBlocking() && !g.NodeAt(ps).Kind.IsBlocking() {
				// Overlap with the producer's busy window.
				pc -= e.cfg.PipelineOverlap * p.TimeMs[pi]
				if floor := p.Completion[pi] - p.TimeMs[pi]; pc < floor {
					pc = floor
				}
			}
			if pc > start {
				start = pc
			}
		}
		c := start + p.TimeMs[i]
		// A consumer cannot finish before its producers stop delivering.
		if c < latestPred {
			c = latestPred
		}
		p.Completion[i] = c
		if c > p.FirstPassMs {
			p.FirstPassMs = c
		}
	}
	// Per-tuple latency along the critical path.
	_, lat := g.CriticalPath(func(n *etl.Node) float64 { return n.WorkPerTuple() })
	p.LatencyPerTupleMs = lat
}

// computeRecovery precomputes, for every node, how much work must be redone
// when it fails: the completion time distance back to the nearest upstream
// savepoint, or back to time zero when none exists. slots and pos are as in
// computeSchedule.
func (e *Engine) computeRecovery(g *etl.Graph, p *Profile, slots, pos []int32) {
	// best[i] = max completion time over upstream checkpoints of node i.
	nn := len(slots)
	best := make([]float64, nn)
	hasCP := make([]bool, nn)
	for i, s := range slots {
		b, ok := 0.0, false
		for _, ps := range g.PredSlots(s) {
			pi := pos[ps]
			pb, pok := best[pi], hasCP[pi]
			if g.NodeAt(ps).Kind == etl.OpCheckpoint {
				pb, pok = p.Completion[pi], true
			}
			if pok && pb > b {
				b, ok = pb, true
			}
		}
		best[i], hasCP[i] = b, ok
		restart := p.Completion[i] - b
		if restart < 0 {
			restart = 0
		}
		p.RestartMs[i] = restart
		p.RestartFromCheckpoint[i] = ok
	}
}

// defaultSpec synthesises a binding for an unbound extract node.
func (e *Engine) defaultSpec(n *etl.Node) data.SourceSpec {
	return data.SourceSpec{
		Name:   n.Name,
		Schema: n.Out,
		Rows:   e.cfg.DefaultRows,
		Defects: data.Defects{
			NullRate:  0.05,
			DupRate:   0.02,
			ErrorRate: 0.03,
		},
		UpdatesPerHour: 1,
		Seed:           e.cfg.Seed ^ hashString(string(n.ID)),
	}
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SourceUpdatesPerHour returns the maximum refresh frequency over the flow's
// bound sources (default 1/h for unbound ones).
func (e *Engine) SourceUpdatesPerHour(g *etl.Graph, bind Binding) float64 {
	max := 0.0
	for _, n := range g.Sources() {
		f := 1.0
		if spec, ok := bind[n.ID]; ok && spec.UpdatesPerHour > 0 {
			f = spec.UpdatesPerHour
		}
		if f > max {
			max = f
		}
	}
	if max == 0 {
		max = 1
	}
	return max
}

// ExecuteDeltaStats runs the data path reusing (and populating) the per-node
// results memoized in cache; a nil cache degenerates to Execute. Nodes whose
// upstream-cone fingerprint hits the cache contribute their materialized
// outputs without re-simulation, so the row-level work is proportional to
// the dirty region of the flow, not its size. The resulting profile is
// byte-identical to a full execution.
//
// The cache must only be shared between evaluations that use the same engine
// configuration and the same binding (the planner scopes one cache per
// planning run). Sharing a cache across concurrent goroutines is safe.
//
// Splice accounting goes into stats (ignored when nil). Collection is a few
// integer increments per node, plus two clock reads per kernel run when
// stats.Clock is set; callers that do not need the numbers pass nil and pay
// nothing.
//
// The data path runs in topological order. A pass-through node with one
// input is forwarded: its output is the stream routed to it, with no cache
// lookup, no store and no kernel. Every other node either splices its
// memoized output from the cache (when its cone key hits) or applies its
// operation to the routed outputs of its predecessors; timing and recovery
// are then derived from the cardinalities, and the sinks' output quality is
// scanned.
func (e *Engine) ExecuteDeltaStats(g *etl.Graph, bind Binding, cache *EvalCache, stats *ExecStats) (*Profile, error) {
	p, _, err := e.execute(g, bind, cache, stats)
	return p, err
}

// execute is ExecuteDeltaStats that also returns every node's pre-routing
// output batches, indexed by topological position.
func (e *Engine) execute(g *etl.Graph, bind Binding, cache *EvalCache, stats *ExecStats) (*Profile, [][]*batch, error) {
	slots, pos, err := topoPositions(g)
	if err != nil {
		return nil, nil, err
	}
	order, _ := g.TopoOrder() // the same cached order, as IDs
	p := newProfile(g.Name, order)
	nn := len(order)

	var keys []etl.ConeKey
	var recs []*coneRecord
	if cache != nil {
		keys = g.ConeKeys(order)
		recs = make([]*coneRecord, nn)
	}
	ar := arenaPool.Get().(*batchArena)
	defer ar.release()

	// outs[i] holds node i's pre-routing output batches; routing to specific
	// successors is derived lazily, only when a (dirty) consumer needs it.
	outs := make([][]*batch, nn)
	flat := make([]int, nn)
	var routed [][]*batch
	// input returns the batch the node in slot ps routes to the node in
	// slot s.
	input := func(ps, s int32) *batch {
		if routed == nil {
			routed = make([][]*batch, nn)
		}
		succs := g.SuccSlots(ps)
		i := pos[ps]
		if routed[i] == nil {
			routed[i] = routeBatches(g.NodeAt(ps), outs[i], len(succs), ar)
		}
		return routed[i][slices.Index(succs, s)]
	}

	if stats != nil {
		stats.Nodes += nn
	}
	for i, s := range slots {
		n := g.NodeAt(s)
		nsucc := len(g.SuccSlots(s))
		preds := g.PredSlots(s)
		if len(preds) == 1 && n.Kind.IsPassThrough() {
			b := input(preds[0], s)
			outs[i], flat[i] = []*batch{b}, b.len()
			p.RowsIn[i] = flat[i]
			e.finishNode(p, n, i, flat[i], nsucc)
			if stats != nil {
				stats.Forwarded++
			}
			continue
		}
		if cache != nil {
			if rec := cache.lookup(keys[i]); rec != nil {
				if stats != nil {
					stats.ConeHits++
				}
				recs[i] = rec
				outs[i], flat[i] = rec.out, rec.flat
				p.RowsIn[i] = rec.rowsIn
				e.finishNode(p, n, i, flat[i], nsucc)
				continue
			}
		}
		if stats != nil {
			stats.Executed++
		}

		ar.reset()
		var in []*batch
		rowsIn := 0
		for _, ps := range preds {
			b := input(ps, s)
			in = append(in, b)
			rowsIn += b.len()
		}
		var start time.Time
		if stats != nil && stats.Clock != nil {
			start = stats.Clock()
		}
		out, err := e.apply(g, n, in, bind, ar)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: executing %s: %w", n, err)
		}
		outs[i] = out
		f := 0
		for _, b := range out {
			f += b.len()
		}
		flat[i] = f
		if n.Kind.IsSource() {
			rowsIn = f
		}
		if stats != nil {
			k := &stats.Kernels[n.Kind]
			k.Count++
			k.RowsIn += int64(rowsIn)
			k.RowsOut += int64(f)
			if stats.Clock != nil {
				k.Nanos += stats.Clock().Sub(start).Nanoseconds()
			}
		}
		p.RowsIn[i] = rowsIn
		e.finishNode(p, n, i, f, nsucc)

		if cache != nil {
			rec := &coneRecord{out: out, rowsIn: rowsIn, flat: f}
			if n.Kind.IsSink() && nsucc == 0 {
				all := flatten(out, ar)
				schema := g.InputSchemaView(n.ID)
				rec.sink = true
				rec.sinkStats = measureColumns(schema, all, ar)
				rec.sinkRows = all.len()
				rec.sinkCells = rec.sinkStats.Rows * schema.Len()
			}
			recs[i] = cache.store(keys[i], rec)
		}
	}

	e.computeSchedule(g, p, slots, pos)
	e.computeRecovery(g, p, slots, pos)
	ar.reset()
	e.measureOutputs(g, p, slots, outs, recs, ar)
	return p, outs, nil
}

// topoPositions returns the graph's topological order as slots, and pos,
// which maps a slot to its position in that order (the index into the
// profile's per-node slices).
func topoPositions(g *etl.Graph) (slots, pos []int32, err error) {
	slots, err = g.TopoSlots()
	if err != nil {
		return nil, nil, err
	}
	pos = make([]int32, g.Slots())
	for i, s := range slots {
		pos[s] = int32(i)
	}
	return slots, pos, nil
}

// routeBatches distributes a node's output batches across its k successors,
// returning the batch for each output port: partition deals rows
// round-robin, hash-split routes by selectHashes, and everything else copies
// the full stream to every successor. Partition and hash-split emit
// selection vectors over the shared flattened batch instead of copying rows.
func routeBatches(n *etl.Node, out []*batch, k int, ar *batchArena) []*batch {
	m := make([]*batch, k)
	if k == 0 {
		return m
	}
	all := flatten(out, ar)
	if all.len() == 0 {
		return m
	}
	switch {
	case n.Kind == etl.OpPartition:
		// Horizontal partition: round-robin across branches.
		nrows := all.len()
		dests := make([][]int32, k)
		for j := range dests {
			cnt := nrows / k
			if j < nrows%k {
				cnt++
			}
			dests[j] = make([]int32, 0, cnt)
		}
		for i := 0; i < nrows; i++ {
			j := i % k
			dests[j] = append(dests[j], int32(all.phys(i)))
		}
		for j := range m {
			m[j] = withSel(all, dests[j])
		}
	case n.RoutesByPort(k):
		// Hash split: route each row by its hash.
		nrows := all.len()
		hashes := ar.hashes(nrows)
		all.selectHashes(hashes)
		dests := make([][]int32, k)
		for j := range dests {
			dests[j] = make([]int32, 0, nrows/k+8)
		}
		for i := 0; i < nrows; i++ {
			j := int(hashes[i] % uint64(k))
			dests[j] = append(dests[j], int32(all.phys(i)))
		}
		for j := range m {
			m[j] = withSel(all, dests[j])
		}
	default:
		// Copy semantics: each successor receives the full stream.
		for j := range m {
			m[j] = all
		}
	}
	return m
}

// measureOutputs scans the batches delivered to the sinks and records quality
// statistics. Sinks whose upstream cone hit the cache contribute their
// memoized statistics without re-scanning.
func (e *Engine) measureOutputs(g *etl.Graph, p *Profile, slots []int32, outs [][]*batch, recs []*coneRecord, ar *batchArena) {
	var sinks []int
	for i, s := range slots {
		if g.NodeAt(s).Kind.IsSink() && len(g.SuccSlots(s)) == 0 {
			sinks = append(sinks, i)
		}
	}
	sort.Slice(sinks, func(a, b int) bool { return p.Order[sinks[a]] < p.Order[sinks[b]] })
	for _, i := range sinks {
		if recs != nil && recs[i] != nil && recs[i].sink {
			rec := recs[i]
			p.RowsLoaded += rec.sinkRows
			p.OutRows += rec.sinkStats.Rows
			p.OutNullCells += rec.sinkStats.NullCells
			p.OutCells += rec.sinkCells
			p.OutDupRows += rec.sinkStats.Duplicates
			p.OutErrRows += rec.sinkStats.Errors
			continue
		}
		id := p.Order[i]
		all := flatten(outs[i], ar)
		schema := g.InputSchemaView(id)
		st := measureColumns(schema, all, ar)
		p.RowsLoaded += all.len()
		p.OutRows += st.Rows
		p.OutNullCells += st.NullCells
		p.OutCells += st.Rows * schema.Len()
		p.OutDupRows += st.Duplicates
		p.OutErrRows += st.Errors
	}
}

// describe renders batch cardinalities for error messages.
func describe(batches []*batch) string {
	parts := make([]string, len(batches))
	for i, b := range batches {
		parts[i] = strconv.Itoa(b.len())
	}
	return "[" + strings.Join(parts, ",") + "]"
}
