package etl

import (
	"bytes"
	"crypto/sha256"
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
	all := make([]hash128, 0, len(g.order))
	tag := byte(fpTagDAG)
	if order, err := g.TopoOrder(); err == nil {
		labels := make(map[NodeID]hash128, len(order))
		buf := make([]byte, 0, 128)
		var preds []hash128
		for _, id := range order {
			preds = preds[:0]
			for _, p := range g.pred[id] {
				preds = append(preds, labels[p])
			}
			sortHashes(preds)
			d := g.nodes[id].digest()
			buf = append(append(buf[:0], d[:]...), '<')
			for _, pl := range preds {
				buf = append(buf, pl[:]...)
			}
			l := sum128(buf)
			labels[id] = l
			all = append(all, l)
		}
	} else {
		tag = fpTagCycle
		for _, id := range g.order {
			all = append(all, g.nodes[id].digest())
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

// ConeKey identifies the full upstream simulation history of one node: its
// own data-semantic configuration plus, transitively, that of every ancestor
// and the exact routing ports connecting them. Two nodes (possibly in
// different alternative flows cloned from the same parent) with equal cone
// keys consume byte-identical inputs and produce byte-identical outputs under
// the same engine configuration and binding — the property the simulator's
// delta-evaluation cache is keyed on.
type ConeKey [16]byte

// ConeKeys computes the upstream-cone fingerprint of every node, aligned
// with the given topological order (as returned by TopoOrder/TopoSort).
//
// The key of a node hashes:
//
//   - the node's ID (bindings and default source seeds are ID-keyed),
//   - its canonical digest (kind, name, output schema, parallelism, params)
//     plus its row-semantic cost parameters (selectivity),
//   - for every predecessor, in input order: the predecessor's cone key, the
//     output port this node occupies among the predecessor's successors, and
//     the predecessor's fan-out — partition and hash-split routing assign
//     rows by port, so the port wiring is part of the input identity.
//
// Purely timing-related cost fields (startup, per-tuple work, failure rate)
// are deliberately excluded: the engine recomputes timing from the concrete
// graph on every evaluation, so designs that differ only in those fields
// (e.g. UpgradeResources rewrites) still share cached row simulation.
func (g *Graph) ConeKeys(order []NodeID) []ConeKey {
	keys := make([]ConeKey, len(order))
	pos := make(map[NodeID]int, len(order))
	buf := make([]byte, 0, 512)
	for i, id := range order {
		pos[id] = i
		n := g.nodes[id]
		buf = buf[:0]
		buf = append(buf, id...)
		buf = append(buf, 0)
		buf = n.appendCone(buf)
		for _, p := range g.pred[id] {
			pk := keys[pos[p]]
			buf = append(buf, pk[:]...)
			port, fan := 0, len(g.succ[p])
			for j, s := range g.succ[p] {
				if s == id {
					port = j
					break
				}
			}
			buf = append(buf, byte(port), byte(port>>8), byte(fan), byte(fan>>8))
		}
		keys[i] = ConeKey(sum128(buf))
	}
	return keys
}
