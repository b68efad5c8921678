package etl

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// hash128 is a truncated SHA-256: node digests, upstream labels and cone keys
// are all 16 bytes.
type hash128 [16]byte

func sum128(b []byte) hash128 {
	sum := sha256.Sum256(b)
	return hash128(sum[:16])
}

// sortHashes sorts bytewise, comparing each hash as two big-endian words.
func sortHashes(hs []hash128) {
	slices.SortFunc(hs, func(a, b hash128) int {
		if c := cmp.Compare(binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8])); c != 0 {
			return c
		}
		return cmp.Compare(binary.BigEndian.Uint64(a[8:]), binary.BigEndian.Uint64(b[8:]))
	})
}

// Fingerprint returns a canonical hash of the flow structure and operation
// configurations. Two alternative designs produced by applying the same
// patterns at the same application points hash identically even when the
// generation order (and hence node ID numbering) differs, which lets the
// Planner deduplicate the alternative space.
//
// The canonical form is position-based. One pass in topological order labels
// every node with the hash of its own digest (its canonical description)
// and the sorted labels of its predecessors, which are final by then, so a
// label encodes the node's whole upstream unfolding tree. The fingerprint
// hashes the flow name and the sorted multiset of labels.
//
// Earlier builds computed the same partition with a Weisfeiler-Leman
// refinement over predecessors, one round per operation on the longest path
// (at most 64). The fingerprint values differ from those builds, and so do
// the values derived from them: the report "fingerprint" field, plan-cache
// keys and RandomSample draws. The dedup relation does not: two flows
// fingerprint equal exactly when they did before, as long as their longest
// path has at most 64 operations (beyond that the refinement stopped early
// and could merge flows this pass keeps apart).
//
// A cyclic graph, which Validate rejects but importers may build before
// validating, gets a deterministic fingerprint over the sorted multiset of
// its node digests.
//
// The result is cached on the graph and invalidated by structural mutations
// and MutableNode, so the planner's dedup probe and the measure report pay
// for one computation per design. Like the topo cache, the cached value is
// swapped atomically: concurrent readers may fill it lazily. Node digests are
// memoized on the nodes themselves and shared by copy-on-write clones, and
// the labels of a clone's untouched slots come from the key memo it
// inherited (see Graph), so a design derived by one pattern application
// hashes only the labels downstream of the application.
func (g *Graph) Fingerprint() string {
	if fp := g.fp.Load(); fp != nil {
		return *fp
	}
	s := g.fingerprintUncached()
	g.fp.Store(&s)
	return s
}

// Leading tags keep the acyclic and the cyclic encodings apart.
const (
	fpTagDAG   = 'D'
	fpTagCycle = 'C'
)

// keyStack sizes the stack scratch of a key pass: flows with at most this
// many slots hash without slot-indexed heap scratch.
const keyStack = 64

func (g *Graph) fingerprintUncached() string {
	var allStack, labelStack [keyStack]hash128
	all := allStack[:0]
	tag := byte(fpTagDAG)
	if order, err := g.TopoSlots(); err == nil {
		var labels []hash128
		if m := g.memo.Load(); m != nil {
			labels = m.labels
		} else {
			var flagStack [keyStack]uint8
			labels = scratch(labelStack[:], len(g.nodes))
			g.labelsInto(order, labels, g.keyFlags(flagStack[:]))
		}
		for _, s := range order {
			all = append(all, labels[s])
		}
	} else {
		tag = fpTagCycle
		for _, n := range g.nodes {
			if n != nil {
				all = append(all, n.digest())
			}
		}
	}
	sortHashes(all)
	var bufStack [2 + 32 + 16*keyStack]byte
	buf := append(append(append(bufStack[:0], tag), g.Name...), '\n')
	for _, l := range all {
		buf = append(buf, l[:]...)
	}
	sum := sum128(buf)
	return hex.EncodeToString(sum[:])
}

// scratch returns stack[:n] when it fits, else a fresh slice.
func scratch[T any](stack []T, n int) []T {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]T, n)
}

// keyMemo is a graph's fingerprint label and cone key of every slot, as of
// the key pass that built it; empty slots hold zero values. It is never
// written after publication, so clones share it.
type keyMemo struct {
	labels []hash128
	cones  []ConeKey
}

// Per-slot flags of an incremental key pass.
const (
	slotEdited     uint8 = 1 << iota // node or predecessor list changed since the base
	slotFanned                       // successor list changed since the base
	slotLabelMoved                   // this pass gave the slot a label unlike the base's
	slotConeMoved                    // this pass gave the slot a cone key unlike the base's
)

// keyFlags returns the change log as per-slot flags, in stack when it fits,
// or nil when the graph has no base and every slot must be hashed.
func (g *Graph) keyFlags(stack []uint8) []uint8 {
	if g.base == nil {
		return nil
	}
	flags := scratch(stack, len(g.nodes))
	clear(flags)
	for _, e := range g.log {
		if e >= 0 {
			flags[e] |= slotEdited
		} else {
			flags[^e] |= slotFanned
		}
	}
	return flags
}

// anyPred reports whether some predecessor of slot s has one of the flags.
func (g *Graph) anyPred(s int32, flags []uint8, mask uint8) bool {
	for _, p := range g.pred[s] {
		if flags[p]&mask != 0 {
			return true
		}
	}
	return false
}

// publishMemo returns the key memo of the graph's current state, building
// and publishing it on first use; nil for a cyclic graph. Concurrent
// callers may both build it, and all of them return the one published.
func (g *Graph) publishMemo() *keyMemo {
	if m := g.memo.Load(); m != nil {
		return m
	}
	order, err := g.TopoSlots()
	if err != nil {
		return nil
	}
	m := &keyMemo{labels: make([]hash128, len(g.nodes)), cones: make([]ConeKey, len(g.nodes))}
	var flagStack [keyStack]uint8
	flags := g.keyFlags(flagStack[:])
	g.labelsInto(order, m.labels, flags)
	g.conesInto(order, m.cones, flags)
	if !g.memo.CompareAndSwap(nil, m) {
		m = g.memo.Load()
	}
	return m
}

// labelsInto sets the fingerprint label of every slot in order, in labels
// (slot-indexed). A label is the hash of the node's digest, '<' and the
// sorted labels of its predecessors, which the topological order has set
// already. With flags (a base exists), a slot whose node and predecessor
// list are unlogged and whose predecessors kept their labels copies the
// base's label instead.
func (g *Graph) labelsInto(order []int32, labels []hash128, flags []uint8) {
	var base []hash128
	if flags != nil {
		base = g.base.labels
	}
	var bufStack [1 + 17*16]byte
	var predStack [16]hash128
	buf, preds := bufStack[:0], predStack[:0]
	for _, s := range order {
		if int(s) < len(base) && flags[s]&slotEdited == 0 && !g.anyPred(s, flags, slotLabelMoved) {
			labels[s] = base[s]
			continue
		}
		preds = preds[:0]
		for _, p := range g.pred[s] {
			preds = append(preds, labels[p])
		}
		sortHashes(preds)
		d := g.nodes[s].digest()
		buf = append(append(buf[:0], d[:]...), '<')
		for _, pl := range preds {
			buf = append(buf, pl[:]...)
		}
		labels[s] = sum128(buf)
		if flags != nil && (int(s) >= len(base) || labels[s] != base[s]) {
			flags[s] |= slotLabelMoved
		}
	}
}

// ConeKey is the data identity of one node's output: two nodes (possibly in
// different alternative flows cloned from the same parent) with equal cone
// keys produce byte-identical output batches under the same engine
// configuration and binding, the property the simulator's delta-evaluation
// cache is keyed on.
type ConeKey [16]byte

// Leading tags keep a node key and a port-routed stream key apart.
const (
	coneTagNode      = 'N'
	coneTagPartition = 'P'
	coneTagHashSplit = 'H'
)

// ConeKeys computes the data identity of every node's output, aligned with
// the given topological order (as returned by TopoOrder/TopoSort). It is an
// explicit encoder over exactly what the simulator's data path reads.
//
// The key of a node hashes:
//
//   - its data digest: kind, ID (bindings and default source seeds are
//     ID-keyed), name, the output schema in attribute order with type, key
//     and nullability, the ParamAttrs, ParamGroupBy and ParamRoute params,
//     and Cost.Selectivity (the filter's keep decisions);
//   - for every input edge, in input order: the stream the predecessor
//     sends along it, and the digest of the predecessor's output schema in
//     attribute order, which fixes the column positions the node's kernels
//     read. The stream is the predecessor's key, hashed with the routing
//     mode, the output port and the fan-out when the predecessor routes by
//     port (Node.RoutesByPort); a copying predecessor sends every successor
//     the same stream.
//
// Everything else is left out because the data path never reads it: the
// other params (schedule and resource settings among them), the timing
// costs (startup, per-tuple work, failure rate) and Parallelism. The engine
// recomputes timing from the concrete graph on every evaluation, so designs
// that differ only there (UpgradeResources and TuneRecurrenceFrequency
// rewrites) share all cached row simulation.
//
// A pass-through operation (OpKind.IsPassThrough) with exactly one input
// is forwarded: its key is the stream on its input edge. The simulator hands
// that stream on unchanged, so its output is that stream, whatever the
// node's own ID, name or schema; its schema still reaches the successors'
// keys through their edge digests. An inserted checkpoint whose schema
// repeats its producer's therefore leaves every key below it unchanged.
//
// Keys are computed per slot and, like Fingerprint's labels, copied from
// the inherited key memo for every slot the graph's logged edits do not
// reach; here a predecessor's edit or successor-list change reaches its
// consumers too, since their keys read its output schema and routing.
func (g *Graph) ConeKeys(order []NodeID) []ConeKey {
	keys := make([]ConeKey, len(order))
	if len(order) == 0 {
		return keys
	}
	var slotStack [keyStack]int32
	var slots []int32
	if t := g.topo.Load(); t != nil && len(t.ids) == len(order) && &t.ids[0] == &order[0] {
		slots = t.slots
	} else {
		slots = scratch(slotStack[:], len(order))
		for i, id := range order {
			slots[i] = g.index[id]
		}
	}
	var cones []ConeKey
	if m := g.memo.Load(); m != nil {
		cones = m.cones
	} else {
		var coneStack [keyStack]ConeKey
		var flagStack [keyStack]uint8
		cones = scratch(coneStack[:], len(g.nodes))
		g.conesInto(slots, cones, g.keyFlags(flagStack[:]))
	}
	for i, s := range slots {
		keys[i] = cones[s]
	}
	return keys
}

// conesInto sets the cone key of every slot in order, in cones
// (slot-indexed). With flags (a base exists), a slot copies the base's key
// when its node and predecessor list are unlogged and no predecessor was
// logged, changed its successor list or moved its key.
func (g *Graph) conesInto(order []int32, cones []ConeKey, flags []uint8) {
	var base []ConeKey
	if flags != nil {
		base = g.base.cones
	}
	var bufStack [1 + 16 + 32*8]byte
	buf := bufStack[:0]
	for _, s := range order {
		if int(s) < len(base) && flags[s]&slotEdited == 0 && !g.anyPred(s, flags, slotEdited|slotFanned|slotConeMoved) {
			cones[s] = base[s]
			continue
		}
		n := g.nodes[s]
		preds := g.pred[s]
		if len(preds) == 1 && n.Kind.IsPassThrough() {
			cones[s] = g.streamKey(preds[0], s, cones[preds[0]])
		} else {
			d := n.digests()
			buf = append(append(buf[:0], coneTagNode), d.data[:]...)
			for _, p := range preds {
				sk := g.streamKey(p, s, cones[p])
				out := g.nodes[p].digests().out
				buf = append(append(buf, sk[:]...), out[:]...)
			}
			cones[s] = ConeKey(sum128(buf))
		}
		if flags != nil && (int(s) >= len(base) || cones[s] != base[s]) {
			flags[s] |= slotConeMoved
		}
	}
}

// streamKey is the identity of the rows the node in slot p, whose key is
// pk, sends to its successor in slot to.
func (g *Graph) streamKey(p, to int32, pk ConeKey) ConeKey {
	succ := g.succ[p]
	n := g.nodes[p]
	if !n.RoutesByPort(len(succ)) {
		return pk
	}
	tag := byte(coneTagHashSplit)
	if n.Kind == OpPartition {
		tag = coneTagPartition
	}
	port := slices.Index(succ, to)
	var buf [1 + 16 + 2*binary.MaxVarintLen64]byte
	b := append(append(buf[:0], tag), pk[:]...)
	b = binary.AppendUvarint(b, uint64(port))
	b = binary.AppendUvarint(b, uint64(len(succ)))
	return ConeKey(sum128(b))
}
