package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"poiesis/internal/etl"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
)

// PlanKey returns a canonical cache key identifying a planning request: the
// flow's canonical fingerprint combined with a canonicalization of the
// effective options and the source binding. Planning is deterministic in
// these inputs, so two requests with equal keys produce identical Results —
// the property a fingerprint-keyed plan cache relies on to serve one
// session's result to another.
//
// Components that do not influence the result are excluded from the key:
// Workers and Progress.
//
// ok is false when the options contain components the canonicalization
// cannot see through — custom measures, or a Policy implementation other
// than the built-in ones — in which case the request must not be served from
// (or stored in) a cache. Constraints are canonicalized by Name(); the
// built-in constraint constructors encode their bounds in the name, but a
// caller-implemented policy.Constraint must use distinct names for distinct
// predicates to be cache-safe.
func PlanKey(g *etl.Graph, bind sim.Binding, opts Options) (string, bool) {
	if g == nil {
		return "", false
	}
	o := opts.withDefaults()
	if len(o.CustomMeasures) > 0 {
		return "", false
	}
	pol, ok := canonicalPolicy(o.Policy)
	if !ok {
		return "", false
	}

	var b strings.Builder
	fmt.Fprintf(&b, "flow:%s\n", g.Fingerprint())
	fmt.Fprintf(&b, "palette:%q\n", o.Palette)
	fmt.Fprintf(&b, "policy:%s\n", pol)
	fmt.Fprintf(&b, "depth:%d max:%d dedup:%t\n", o.Depth, o.MaxAlternatives, !o.DisableDedup)
	dims := make([]string, len(o.Dims))
	for i, d := range o.Dims {
		dims[i] = string(d)
	}
	fmt.Fprintf(&b, "dims:%q\n", dims)
	names := make([]string, len(o.Constraints))
	for i, c := range o.Constraints {
		names[i] = c.Name()
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "constraints:%q\n", names)
	fmt.Fprintf(&b, "sim:%+v\n", o.Sim)

	ids := make([]string, 0, len(bind))
	for id := range bind {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "bind:%s=%+v\n", id, bind[etl.NodeID(id)])
	}

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16]), true
}

// canonicalPolicy renders the built-in deployment policies to a stable
// string. Unknown Policy implementations are not canonicalizable.
func canonicalPolicy(p policy.Policy) (string, bool) {
	switch q := p.(type) {
	case policy.Exhaustive:
		return fmt.Sprintf("exhaustive{max:%d}", q.MaxPerPattern), true
	case policy.Greedy:
		return fmt.Sprintf("greedy{topk:%d}", q.TopK), true
	case policy.GoalDriven:
		var w strings.Builder
		for _, c := range measures.AllCharacteristics() {
			fmt.Fprintf(&w, "%s=%g;", c, q.Goals.Weight(c))
		}
		return fmt.Sprintf("goal_driven{topk:%d goals:%s}", q.TopK, w.String()), true
	case policy.RandomSample:
		return fmt.Sprintf("random_sample{n:%d seed:%d}", q.N, q.Seed), true
	default:
		return "", false
	}
}
