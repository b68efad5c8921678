package server

import (
	"container/list"
	"context"
	"sync"

	"poiesis/internal/core"
)

// planCache is the fingerprint-keyed result cache: planning is deterministic
// in (flow fingerprint, canonical options, binding) — the key produced by
// core.PlanKey — so identical plans across sessions are served from cache
// instead of recomputed. Entries are LRU-evicted against a byte budget
// (large results weigh what they cost), with a secondary entry-count bound,
// and concurrent requests for the same key are collapsed: one leader
// computes while waiters block, then share the leader's result. If the
// leader fails (e.g. its client disconnected, cancelling the run), one
// waiter takes over as the new leader rather than inheriting the failure.
//
// Cached Results are shared by reference. This is safe because planning and
// selection treat result graphs as read-only (patterns apply to clones); see
// core.Session.AdoptResult.
type planCache struct {
	max      int
	maxBytes int64

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]chan struct{}
	bytes    int64
	hits     int64
	misses   int64
}

type cacheEntry struct {
	key    string
	res    *core.Result
	weight int64
	// memoed records (under planCache.mu) that the memo payload has been
	// built and charged against the byte budget, so eviction releases the
	// right amount.
	memoed bool
	// record is the length of the result's memoized record encoding, charged
	// against the byte budget (under planCache.mu) once a write-through has
	// built it; eviction releases it with the weight.
	record int64
	// memo holds the derived response payload for the result, built at most
	// once per entry: serving a cache hit must not re-derive explanations,
	// pattern usage and the full-space scatter projection per request.
	memoOnce sync.Once
	memo     any
}

func newPlanCache(max int, maxBytes int64) *planCache {
	if max <= 0 {
		max = 128
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &planCache{
		max:      max,
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]chan struct{}{},
	}
}

// resultWeight estimates the resident size of a cached planning result in
// bytes. It scales with what actually dominates a Result — alternatives ×
// (graph size + measure-report size) — so one MaxAlternatives=4096 run
// weighs thousands of times more than a depth-1 exploration, instead of both
// counting as "one entry". The constants are deliberately round: the budget
// needs proportionality, not byte-exactness, and copy-on-write node sharing
// between alternative graphs makes an exact figure ill-defined anyway.
func resultWeight(res *core.Result) int64 {
	const (
		entryOverhead = 2 << 10
		perAlt        = 256 // Alternative struct, label, skyline bookkeeping
		perNode       = 256 // Node + schema attrs + params (amortized, shared)
		perEdge       = 48
		perMeasure    = 128 // Measure struct + name/unit string headers
	)
	w := int64(entryOverhead)
	weigh := func(a *core.Alternative) {
		w += perAlt
		if a.Graph != nil {
			w += int64(a.Graph.Len())*perNode + int64(a.Graph.EdgeCount())*perEdge
		}
		w += int64(len(a.Applications)) * perAlt
		if a.Report != nil {
			n := 0
			for ci := range a.Report.Chars {
				for mi := range a.Report.Chars[ci].Measures {
					n += 1 + len(a.Report.Chars[ci].Measures[mi].Detail)
				}
			}
			w += int64(n) * perMeasure
		}
	}
	weigh(&res.Initial)
	for i := range res.Alternatives {
		weigh(&res.Alternatives[i])
	}
	return w
}

// do returns the cached result for key, or runs compute to produce it.
// hit reports whether the result was served from cache (directly, or by
// waiting on a concurrent leader computing the same key). On compute failure
// the error is returned and nothing is cached.
func (c *planCache) do(ctx context.Context, key string, compute func() (*core.Result, error)) (res *core.Result, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.ll.MoveToFront(e)
			c.hits++
			res := e.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, true, nil
		}
		if ch, ok := c.inflight[key]; ok {
			// Another request is computing this key: wait for it, then loop —
			// on its success the entry is present; on its failure we take over.
			c.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		ch := make(chan struct{})
		c.inflight[key] = ch
		c.misses++
		c.mu.Unlock()

		res, err = compute()

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.addLocked(key, res)
		}
		c.mu.Unlock()
		close(ch)
		return res, false, err
	}
}

// lookup returns the cached result for key without computing anything. When
// wait is true and another request is currently computing the key, lookup
// blocks for that computation and serves its result — the behavior the
// peer-facing cache endpoint wants: a peer asking the owner mid-computation
// should share the in-flight run, not start a redundant one. A miss (or a
// cancelled wait, or a failed leader) reports ok false.
func (c *planCache) lookup(ctx context.Context, key string, wait bool) (*core.Result, bool) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.ll.MoveToFront(e)
			c.hits++
			res := e.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, true
		}
		ch, inflight := c.inflight[key]
		if !inflight || !wait {
			c.misses++
			c.mu.Unlock()
			return nil, false
		}
		c.mu.Unlock()
		select {
		case <-ch:
			// Leader finished: on success the entry is resident now; on
			// failure the next loop reports the miss (no waiter takeover
			// here — peers must not compute for the owner).
		case <-ctx.Done():
			return nil, false
		}
	}
}

// put inserts an externally produced result — a peer's write-through — and
// evicts as usual. A key already resident or currently being computed
// locally is left alone: the local computation is at least as fresh, and
// addLocked's invariant (insert only absent keys) must hold.
func (c *planCache) put(key string, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	if _, ok := c.inflight[key]; ok {
		return
	}
	c.addLocked(key, res)
}

// memo returns the entry's derived payload, building it once via build; ok
// is false when the entry has been evicted (the caller then derives the
// payload itself). The once-guard means concurrent first hits block on one
// build instead of all paying for it. The payload pins per-alternative
// explanations, pattern usage and the scatter projection — comparable in
// size to the result itself — so building it charges the entry's weight
// against the byte budget a second time and may trigger eviction of older
// entries.
func (c *planCache) memo(key string, build func(*core.Result) any) (any, bool) {
	c.mu.Lock()
	e, found := c.entries[key]
	c.mu.Unlock()
	if !found {
		return nil, false
	}
	ce := e.Value.(*cacheEntry)
	built := false
	ce.memoOnce.Do(func() {
		ce.memo = build(ce.res)
		built = true
	})
	if built {
		c.mu.Lock()
		// The entry may have been evicted while we built; only charge (and
		// mark) entries still resident. The caller gets the payload either
		// way.
		if _, still := c.entries[key]; still && !ce.memoed {
			ce.memoed = true
			c.bytes += ce.weight
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	return ce.memo, true
}

// chargeRecord charges the record encoding of key's resident result against
// the byte budget, once per entry. On a record-keeping backend the first
// write-through of a session holding the result memoizes that encoding on
// the Result (core.Result.RecordBytes), where it stays as long as the entry
// does: about the size of the result's part of a session record. Nothing is
// charged while no encoding is built, as in memory mode, or when key's entry
// holds another result.
func (c *planCache) chargeRecord(key string, res *core.Result) {
	n := res.RecordBytes()
	if n == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	if ce := e.Value.(*cacheEntry); ce.res == res && ce.record == 0 {
		ce.record = n
		c.bytes += n
		c.evictLocked()
	}
}

// addLocked inserts a freshly computed entry and evicts least-recently-used
// entries until the byte budget (and the secondary entry cap) holds again.
// The newest entry itself is never evicted, so a single result larger than
// the whole budget still serves its waiters. The key cannot already be
// present: do() registers an inflight marker before computing, so concurrent
// requests for the key either hit the existing entry or wait on the marker —
// which also makes cacheEntry immutable after insertion, the property
// memo()'s unlocked e.Value read relies on.
func (c *planCache) addLocked(key string, res *core.Result) {
	w := resultWeight(res)
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, weight: w})
	c.bytes += w
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the byte budget and
// the entry cap hold, always keeping at least one entry resident.
func (c *planCache) evictLocked() {
	for c.ll.Len() > 1 && (c.bytes > c.maxBytes || c.ll.Len() > c.max) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		victim := oldest.Value.(*cacheEntry)
		c.bytes -= victim.weight
		if victim.memoed {
			c.bytes -= victim.weight
		}
		c.bytes -= victim.record
		delete(c.entries, victim.key)
	}
}

func (c *planCache) stats() (hits, misses int64, size int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.bytes
}
