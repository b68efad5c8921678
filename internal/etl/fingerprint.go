package etl

import (
	"bytes"
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

func sortHashes(hs []hash128) {
	slices.SortFunc(hs, func(a, b hash128) int { return bytes.Compare(a[:], b[:]) })
}

// Fingerprint returns a canonical hash of the flow structure and operation
// configurations. Two alternative designs produced by applying the same
// patterns at the same application points hash identically even when the
// generation order (and hence node ID numbering) differs, which lets the
// Planner deduplicate the alternative space.
//
// The canonical form is position-based. One pass in topological order labels
// every node with the hash of its own digest (its canonical() description)
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
// memoized on the nodes themselves and shared by copy-on-write clones.
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

func (g *Graph) fingerprintUncached() string {
	all := make([]hash128, 0, g.live)
	tag := byte(fpTagDAG)
	if order, err := g.TopoSlots(); err == nil {
		labels := make([]hash128, len(g.nodes))
		buf := make([]byte, 0, 128)
		var preds []hash128
		for _, s := range order {
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
	buf := make([]byte, 0, 2+len(g.Name)+16*len(all))
	buf = append(append(append(buf, tag), g.Name...), '\n')
	for _, l := range all {
		buf = append(buf, l[:]...)
	}
	sum := sum128(buf)
	return hex.EncodeToString(sum[:])
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
func (g *Graph) ConeKeys(order []NodeID) []ConeKey {
	keys := make([]ConeKey, len(order))
	// at maps a slot to its position in order, filled as the pass reaches
	// it; predecessors come first, so theirs is always set.
	at := make([]int32, len(g.nodes))
	buf := make([]byte, 0, 256)
	for i, id := range order {
		s := g.index[id]
		at[s] = int32(i)
		n := g.nodes[s]
		preds := g.pred[s]
		if len(preds) == 1 && n.Kind.IsPassThrough() {
			keys[i] = g.streamKey(preds[0], s, keys[at[preds[0]]])
			continue
		}
		d := n.digests()
		buf = append(append(buf[:0], coneTagNode), d.data[:]...)
		for _, p := range preds {
			sk := g.streamKey(p, s, keys[at[p]])
			out := g.nodes[p].digests().out
			buf = append(append(buf, sk[:]...), out[:]...)
		}
		keys[i] = ConeKey(sum128(buf))
	}
	return keys
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
