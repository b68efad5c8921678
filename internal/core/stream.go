package core

import (
	"context"
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

// DeltaMode selects the planner's per-alternative evaluation strategy
// (Options.DeltaEval).
type DeltaMode int

const (
	// DeltaOn (the zero value, hence the default) shares one sim.EvalCache
	// across the planning run: every node's materialized output is memoized
	// by its upstream-cone fingerprint, so evaluating a candidate costs work
	// proportional to the region its pattern application changed, not to the
	// whole flow. The cache is scoped to the run (one engine configuration,
	// one binding) and is safe under the concurrent evaluation pool.
	DeltaOn DeltaMode = iota
	// DeltaOff evaluates every alternative from scratch — the behavioural
	// oracle delta evaluation is tested against, and the baseline of the A5
	// ablation benchmark.
	DeltaOff
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
func (p *Planner) planStream(ctx context.Context, initial *etl.Graph, bind sim.Binding, palette []fcp.Pattern, ev *evaluator, est *measures.Estimator, res *Result, clock *stageClock) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.opts.Workers
	genCh := make(chan streamItem, 2*workers)
	evalCh := make(chan streamItem, 2*workers)

	// generated is written by the generator and read by the collector for
	// progress events, hence atomic.
	var generated atomic.Int64

	var genStats Stats
	var genErr error
	var wgGen sync.WaitGroup
	wgGen.Add(1)
	go func() {
		defer wgGen.Done()
		defer close(genCh)
		genStats, genErr = p.streamGenerate(ctx, initial, palette, genCh, &generated, clock)
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
				profile, batch, err := ev.evaluate(it.alt.Graph, bind, es)
				if err != nil {
					it.alt.Err = err
				} else {
					it.alt.Report = est.Estimate(it.alt.Graph, profile, batch)
				}
				clock.observe(siEval, start)
				recordAlternative(sp, &it.alt, ev.cache != nil, es, start)
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
func (p *Planner) streamGenerate(ctx context.Context, initial *etl.Graph, palette []fcp.Pattern, out chan<- streamItem, generated *atomic.Int64, clock *stageClock) (Stats, error) {
	var stats Stats
	seen := newFingerprintSet()
	seen.Add(initial.Fingerprint())
	frontier := []Alternative{{Graph: initial}}
	pruner := newStaticPruner(p.opts)
	seq := 0
	sp := obs.SpanFrom(ctx)

	chunk := p.opts.Workers * 8
	if chunk < 32 {
		chunk = 32
	}
	for round := 0; round < p.opts.Depth; round++ {
		var next []Alternative
		for i := range frontier {
			cur := &frontier[i]
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			cands := p.opts.Policy.Propose(cur.Graph, palette)
			stats.CandidatesSeen += len(cands)
			// Prefetch one chunk ahead: the apply workers of chunk k+1 probe
			// the fingerprint set while the committer inserts chunk k's.
			fetch := func(start int) chan []applyResult {
				end := start + chunk
				if end > len(cands) {
					end = len(cands)
				}
				ch := make(chan []applyResult, 1)
				go func() {
					t0 := time.Now()
					results := p.applyBatch(ctx, cur, cands[start:end], seen)
					clock.observe(siApply, t0)
					if sp != nil {
						sp.Record("planner.apply", t0, time.Since(t0), obs.Int("candidates", int64(end-start)))
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
				for _, r := range results {
					if seq >= p.opts.MaxAlternatives {
						stats.Capped = true
						return stats, nil
					}
					if r.graph == nil {
						// Application failed (or was skipped on cancellation —
						// caught by the ctx checks around this loop).
						continue
					}
					stats.Generated++
					if !p.opts.DisableDedup {
						// r.dup is the apply workers' concurrent fast-path
						// probe; the set is add-only, so true is
						// authoritative. Add settles the racy false case in
						// commit order.
						if r.dup || !seen.Add(r.fp) {
							stats.Deduped++
							continue
						}
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
					next = append(next, alt)
					generated.Store(int64(seq + 1))
					select {
					case out <- streamItem{seq: seq, alt: alt}:
					case <-ctx.Done():
						return stats, ctx.Err()
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
	return stats, nil
}

// applyResult is one candidate application computed by the apply workers.
type applyResult struct {
	graph *etl.Graph
	app   fcp.Application
	fp    string
	dup   bool
}

// applyBatch clones the parent flow and applies every candidate on a bounded
// worker pool, returning results in candidate order. Fingerprints are
// computed by the workers, which also probe the shared fingerprint set
// concurrently with the committer's inserts.
func (p *Planner) applyBatch(ctx context.Context, cur *Alternative, cands []policy.Candidate, seen *fingerprintSet) []applyResult {
	results := make([]applyResult, len(cands))
	if len(cands) == 0 {
		return results
	}
	apply := func(i int) {
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
			results[i].dup = seen.Contains(results[i].fp)
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
