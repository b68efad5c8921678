package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/obs"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
)

// ProgressEvent describes one alternative as the streaming pipeline finishes
// processing it. Events are delivered in generation order from a single
// goroutine, so callbacks need no synchronisation of their own.
type ProgressEvent struct {
	// Seq is the alternative's position in generation order (0-based).
	Seq int
	// Label is the alternative's application history label.
	Label string
	// Err is the alternative's evaluation failure, if any.
	Err error
	// Generated is the number of alternatives generated so far (post-dedup);
	// it may still grow while evaluation is in flight.
	Generated int
	// Evaluated counts alternatives whose measures have been estimated.
	Evaluated int
	// Kept counts evaluated alternatives that satisfied all constraints.
	Kept int
	// SkylineSize is the current size of the incremental Pareto frontier.
	SkylineSize int
	// StageNs holds the cumulative wall time (nanoseconds, summed across
	// workers) each planner stage has consumed so far in this run, so
	// progress consumers can watch where the time is going while the
	// pipeline streams. Sampled traces carry the real intervals instead:
	// one planner.apply span per apply batch, one planner.alternative span
	// per evaluation.
	StageNs StageNanos
}

// streamItem carries one freshly generated alternative through the pipeline
// with its deterministic generation-order sequence number.
type streamItem struct {
	seq int
	alt Alternative
}

// planStream runs the concurrent streaming pipeline. Three stages overlap:
//
//	generate — one goroutine proposes candidates round by round, fans the
//	           clone+apply+fingerprint work out to apply workers, commits
//	           dedup decisions in deterministic candidate order, and emits
//	           accepted alternatives into a bounded channel;
//	evaluate — a worker pool consumes alternatives as they arrive (the
//	           paper's elastic evaluation nodes), overlapping measure
//	           estimation with generation instead of waiting for the full
//	           space;
//	collect  — a reorder buffer restores generation order, applies the
//	           constraint filter in-stream, feeds the incremental skyline,
//	           and fires the progress callback.
//
// The committed order is the breadth-first candidate order, so the resulting
// alternative set, stats and skyline do not depend on worker scheduling: they
// equal a strictly sequential generate-evaluate-skyline pass (the test
// oracle in oracle_test.go).
func (p *Planner) planStream(ctx context.Context, initial *etl.Graph, bind sim.Binding, palette []fcp.Pattern, engine *sim.Engine, cache *sim.EvalCache, est *measures.Estimator, res *Result, clock *stageClock) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.opts.Workers
	genCh := make(chan streamItem, 2*workers)
	evalCh := make(chan streamItem, 2*workers)

	// generated is written by the generator and read by the collector for
	// progress events, hence atomic.
	var generated atomic.Int64

	var genStats Stats
	var commuted int
	var genErr error
	var wgGen sync.WaitGroup
	wgGen.Add(1)
	go func() {
		defer wgGen.Done()
		defer close(genCh)
		genStats, commuted, genErr = p.streamGenerate(ctx, initial, palette, genCh, &generated, clock)
	}()

	sp := obs.SpanFrom(ctx)
	var wgEval sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgEval.Add(1)
		go func() {
			defer wgEval.Done()
			for it := range genCh {
				if ctx.Err() != nil {
					return
				}
				start := time.Now()
				var es *sim.ExecStats
				if sp != nil {
					es = &sim.ExecStats{}
				}
				profile, batch, err := engine.EvaluateDeltaStats(it.alt.Graph, bind, cache, es)
				if err != nil {
					it.alt.Err = err
				} else {
					it.alt.Report = est.Estimate(it.alt.Graph, profile, batch)
				}
				clock.observe(siEval, start)
				recordAlternative(sp, &it.alt, es, start)
				select {
				case evalCh <- it:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wgEval.Wait()
		close(evalCh)
	}()

	// Collect: a reorder buffer turns out-of-order worker completions back
	// into generation order so constraint filtering, the kept list, the
	// incremental skyline and progress events are all deterministic.
	inc := skyline.NewIncremental()
	pending := make(map[int]streamItem)
	nextSeq := 0
	var kept []Alternative
	evaluated, rejected := 0, 0
	for it := range evalCh {
		pending[it.seq] = it
		for {
			nxt, ok := pending[nextSeq]
			if !ok {
				break
			}
			delete(pending, nextSeq)
			if nxt.alt.Err == nil && nxt.alt.Report != nil {
				evaluated++
				filterStart := time.Now()
				ok, _ := policy.CheckAll(nxt.alt.Report, p.opts.Constraints)
				clock.observe(siFilter, filterStart)
				if !ok {
					rejected++
				} else {
					kept = append(kept, nxt.alt)
					mergeStart := time.Now()
					inc.Add(len(kept)-1, nxt.alt.Report.Vector(p.opts.Dims))
					clock.observe(siMerge, mergeStart)
				}
			}
			if p.opts.Progress != nil {
				p.opts.Progress(ProgressEvent{
					Seq:         nxt.seq,
					Label:       nxt.alt.Label(),
					Err:         nxt.alt.Err,
					Generated:   int(generated.Load()),
					Evaluated:   evaluated,
					Kept:        len(kept),
					SkylineSize: inc.Len(),
					StageNs:     clock.snapshot(),
				})
			}
			nextSeq++
		}
	}
	wgGen.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if genErr != nil {
		return genErr
	}
	sp.SetInt("commuted", int64(commuted))
	res.Stats = genStats
	res.Stats.Evaluated = evaluated
	res.Stats.ConstraintRejected = rejected
	res.Alternatives = kept
	res.SkylineIdx = inc.Indices()
	return nil
}

// streamGenerate is the generation stage: breadth-first over rounds, each
// round applying every proposed candidate to every frontier design. The
// clone+apply+fingerprint work runs on parallel apply workers in chunks, with
// the next chunk prefetched while the current one's dedup decisions are
// committed in candidate order — so the alternative set, labels and stats
// are those of applying the candidates one by one. Chunking also
// bounds the work wasted when MaxAlternatives stops a round mid-batch.
// Accepted alternatives are emitted immediately so evaluation overlaps
// generation.
// Commuted reversals (genNode.markCommuted) are neither cloned nor applied: the
// committer counts each at its position as a duplicate, and the second
// result counts them.
func (p *Planner) streamGenerate(ctx context.Context, initial *etl.Graph, palette []fcp.Pattern, out chan<- streamItem, generated *atomic.Int64, clock *stageClock) (Stats, int, error) {
	var stats Stats
	// seen is the committer's alone: the apply workers fingerprint in
	// parallel, and only the commit loop below reads and writes the set, in
	// candidate order.
	seen := map[string]bool{initial.Fingerprint(): true}
	frontier := []*genNode{{alt: Alternative{Graph: initial}}}
	pruner := newStaticPruner(p.opts)
	seq, commuted := 0, 0
	sp := obs.SpanFrom(ctx)

	chunk := p.opts.Workers * 8
	if chunk < 32 {
		chunk = 32
	}
	for round := 0; round < p.opts.Depth; round++ {
		var next []*genNode
		for _, node := range frontier {
			cur := &node.alt
			if err := ctx.Err(); err != nil {
				return stats, commuted, err
			}
			cands := p.opts.Policy.Propose(cur.Graph, palette)
			stats.CandidatesSeen += len(cands)
			node.propose(cands, palette)
			if !p.opts.DisableDedup {
				node.markCommuted()
			}
			// Prefetch one chunk ahead: the apply workers of chunk k+1 clone,
			// apply and fingerprint while the committer settles chunk k.
			fetch := func(start int) chan []applyResult {
				end := start + chunk
				if end > len(cands) {
					end = len(cands)
				}
				skip, skipped := node.skip[start:end], 0
				for _, s := range skip {
					if s {
						skipped++
					}
				}
				ch := make(chan []applyResult, 1)
				go func() {
					t0 := time.Now()
					results := p.applyBatch(ctx, cur, cands[start:end], skip)
					clock.observe(siApply, t0)
					if sp != nil {
						sp.Record("planner.apply", t0, time.Since(t0),
							obs.Int("candidates", int64(end-start)),
							obs.Int("commuted", int64(skipped)))
					}
					ch <- results
				}()
				return ch
			}
			var ahead chan []applyResult
			if len(cands) > 0 {
				ahead = fetch(0)
			}
			for start := 0; start < len(cands); start += chunk {
				results := <-ahead
				if start+chunk < len(cands) {
					ahead = fetch(start + chunk)
				}
				for k, r := range results {
					if seq >= p.opts.MaxAlternatives {
						stats.Capped = true
						return stats, commuted, nil
					}
					if node.skip[start+k] {
						stats.Generated++
						stats.Deduped++
						commuted++
						node.committed[start+k] = true
						continue
					}
					if r.graph == nil {
						// Application failed (or was skipped on cancellation —
						// caught by the ctx checks around this loop).
						continue
					}
					stats.Generated++
					node.committed[start+k] = true
					if !p.opts.DisableDedup {
						if seen[r.fp] {
							stats.Deduped++
							continue
						}
						seen[r.fp] = true
					}
					// After dedup, before emission: a statically infeasible
					// flow is dropped together with its whole subtree (it
					// joins neither the output nor the next frontier).
					if pruner.prune(r.graph) {
						stats.StaticPruned++
						continue
					}
					alt := Alternative{
						Graph:        r.graph,
						Applications: append(append([]fcp.Application(nil), cur.Applications...), r.app),
					}
					node.child[start+k] = &genNode{parent: node, at: start + k, alt: alt}
					next = append(next, node.child[start+k])
					generated.Store(int64(seq + 1))
					select {
					case out <- streamItem{seq: seq, alt: alt}:
					case <-ctx.Done():
						return stats, commuted, ctx.Err()
					}
					seq++
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return stats, commuted, nil
}

// genNode is a frontier alternative in the generation tree, with the
// candidates proposed on it and what became of each.
type genNode struct {
	alt    Alternative
	parent *genNode
	at     int // index in parent.cands of the candidate that built alt
	cands  []policy.Candidate
	// keys holds each candidate's key (zero if it has none); first maps a
	// key to its earliest candidate.
	keys  []candKey
	first map[candKey]int
	// Per candidate: the alternative it built if that joined the next
	// frontier, whether its flow reached the fingerprint set (accepted,
	// deduplicated, pruned or skipped), and whether it is skipped.
	child           []*genNode
	committed, skip []bool
}

// candKey identifies a candidate by palette position + 1 and point, never by
// Pattern value: a user pattern's type need not be comparable.
type candKey struct {
	pal int
	pt  fcp.Point
}

func (n *genNode) propose(cands []policy.Candidate, palette []fcp.Pattern) {
	n.cands, n.keys, n.first = cands, make([]candKey, len(cands)), make(map[candKey]int, len(cands))
	n.child, n.committed, n.skip = make([]*genNode, len(cands)), make([]bool, len(cands)), make([]bool, len(cands))
	for x, c := range cands {
		// Only pointer types get a key: == on a user value type may panic.
		for k, pat := range palette {
			if reflect.TypeOf(c.Pattern).Kind() == reflect.Pointer && pat == c.Pattern {
				n.keys[x] = candKey{pal: k + 1, pt: c.Point}
				if _, dup := n.first[n.keys[x]]; !dup {
					n.first[n.keys[x]] = x
				}
				break
			}
		}
	}
}

// markCommuted marks in skip the node's candidates whose flow is provably in
// the fingerprint set already. The node A was built from its parent P by P's
// candidate c_i. A candidate c on A is a commuted reversal when
//
//  1. c is P's candidate c_j (same palette pattern, same point) with j < i;
//  2. P + c_j joined the frontier, so it was expanded before A;
//  3. c_i was proposed on P + c_j and committed there, so the flow
//     P + c_j + c_i is in the fingerprint set;
//  4. the footprints of c_i and c_j on P do not conflict (fcp.Commute), so
//     A + c = P + c_i + c_j is that same flow.
//
// Both orders are valid because both were proposed.
func (n *genNode) markCommuted() {
	par := n.parent
	if par == nil {
		return
	}
	ci := par.cands[n.at]
	for x, k := range n.keys {
		if j, ok := par.first[k]; ok && j < n.at && par.child[j] != nil {
			sib, cj := par.child[j], par.cands[j]
			if y, ok := sib.first[par.keys[n.at]]; ok && sib.committed[y] {
				n.skip[x] = fcp.Commute(par.alt.Graph, ci.Pattern, ci.Point, cj.Pattern, cj.Point)
			}
		}
	}
}

// applyResult is one candidate application computed by the apply workers.
type applyResult struct {
	graph *etl.Graph
	app   fcp.Application
	fp    string
}

// applyBatch clones the parent flow and applies every candidate not marked in
// skip on a bounded worker pool, returning results in candidate order.
// Fingerprints are computed by the workers; the committer alone decides
// duplicates.
func (p *Planner) applyBatch(ctx context.Context, cur *Alternative, cands []policy.Candidate, skip []bool) []applyResult {
	results := make([]applyResult, len(cands))
	if len(cands) == 0 {
		return results
	}
	apply := func(i int) {
		if skip[i] {
			return
		}
		clone := cur.Graph.Clone()
		app, err := cands[i].Pattern.Apply(clone, cands[i].Point)
		if err != nil {
			// The candidate was valid at proposal time; application can only
			// fail on programming errors, which tests catch. Leave the slot
			// empty so the committer skips it.
			return
		}
		results[i].graph, results[i].app = clone, app
		if !p.opts.DisableDedup {
			results[i].fp = clone.Fingerprint()
		}
	}
	// Half the Workers budget: the apply pool runs concurrently with the
	// eval pool (prefetched chunks overlap evaluation), so sizing both at
	// Workers would oversubscribe the CPU to ~2x GOMAXPROCS.
	workers := p.opts.Workers / 2
	if workers < 1 {
		workers = 1
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			apply(i)
		}
		return results
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cands) || ctx.Err() != nil {
					return
				}
				apply(i)
			}
		}()
	}
	wg.Wait()
	return results
}
