package sim

import (
	"sync"
	"sync/atomic"

	"poiesis/internal/data"
	"poiesis/internal/etl"
)

// EvalCache memoizes per-node simulation results across the alternative
// flows of one planning run, keyed by data identity (etl.Graph.ConeKeys).
// The key covers what the data path reads: the node's kind, ID, name,
// ordered output schema, the attrs, group_by and route params and its
// selectivity, plus, per input edge in order, the predecessor's key, the
// routing port when the predecessor routes by port, and the predecessor's
// ordered output schema. Two nodes with equal keys consume byte-identical
// inputs and read the same settings, so they produce byte-identical outputs:
// a candidate flow re-simulates only the nodes its pattern application
// changed the data of — the shared-prefix property of the planner's explore
// loop, where every candidate is its parent plus one pattern application.
// Timing costs, parallelism and the other params are not in the key; the
// engine recomputes timing from the concrete graph on every evaluation.
// Forwarded pass-through nodes never reach the cache.
//
// An EvalCache is safe for concurrent use by many evaluation workers. It must
// only be shared between evaluations with the same engine configuration and
// the same source binding: both are inputs to the simulation that the key
// deliberately does not capture (the planner creates one cache per planning
// run, which pins both).
//
// Cached outputs are immutable once stored. Operations never mutate their
// input batches, and pass-through operations alias rather than copy, so
// records freely share column storage with one another.
type EvalCache struct {
	mu sync.RWMutex
	m  map[etl.ConeKey]*coneRecord

	// rows counts the flattened row cardinality of stored records; once it
	// exceeds evalCacheRows, store becomes a no-op. This bounds a run's resident
	// memory: without it, every terminal-depth alternative would park its
	// freshly simulated dirty cone in the cache even though most of those
	// cones are never looked up again. The early, high-value entries — the
	// initial flow and the shallow rounds, which are prefixes of everything
	// generated later — always land before the budget runs out. The count
	// overstates physical memory (pass-through outputs alias their inputs),
	// which errs on the bounded side.
	rows int64

	hits   atomic.Int64
	misses atomic.Int64
}

// coneRecord is the memoized simulation result of one node cone: the
// pre-routing output batches plus the cardinalities the profile needs.
// Routing to concrete successors is recomputed per graph (it depends on
// downstream wiring, which the cone key deliberately excludes), as is all
// timing. Sink nodes additionally memoize their output-quality scan.
type coneRecord struct {
	out    []*batch
	rowsIn int
	flat   int

	sink      bool
	sinkStats data.Stats
	sinkRows  int
	sinkCells int
}

// evalCacheRows is the row budget of an evaluation cache (counted rows, see
// EvalCache.rows).
const evalCacheRows = 4 << 20

// NewEvalCache returns an empty evaluation cache that stops admitting new
// records once the counted stored rows exceed evalCacheRows (lookups of
// already-stored cones keep hitting).
func NewEvalCache() *EvalCache {
	return &EvalCache{m: map[etl.ConeKey]*coneRecord{}}
}

func (c *EvalCache) lookup(k etl.ConeKey) *coneRecord {
	c.mu.RLock()
	rec := c.m[k]
	c.mu.RUnlock()
	if rec == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return rec
}

// store keeps the first record for a key: concurrent workers may simulate
// the same cone simultaneously, and since equal keys imply equal results the
// duplicates are interchangeable. Stores past the row budget are dropped.
// The canonical record for the key is returned (the already-stored one when
// this store lost the race).
func (c *EvalCache) store(k etl.ConeKey, rec *coneRecord) *coneRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	if got, ok := c.m[k]; ok {
		return got
	}
	if c.rows <= evalCacheRows {
		c.m[k] = rec
		c.rows += int64(rec.flat)
	}
	return rec
}

// Len returns the number of memoized node cones.
func (c *EvalCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Stats returns the cumulative node-level hit/miss counters.
func (c *EvalCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
