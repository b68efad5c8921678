package main

import (
	"context"
	"fmt"
	"time"

	"poiesis/internal/cluster"
)

// counters are the service counters the traced run reads from /v1/stats,
// summed over the replicas.
type counters struct {
	plans, hits, misses          int64
	peerGets, peerHits, peerPuts int64
}

func (r *serveRun) stats(ctx context.Context) (counters, error) {
	var c counters
	for _, u := range r.cl.urls {
		var doc struct {
			PlansComputed int64 `json:"plansComputed"`
			CacheHits     int64 `json:"cacheHits"`
			CacheMisses   int64 `json:"cacheMisses"`
			Cluster       *struct {
				Peers []struct {
					CacheGets int64 `json:"cacheGets"`
					CacheHits int64 `json:"cacheHits"`
					CachePuts int64 `json:"cachePuts"`
				} `json:"peers"`
			} `json:"cluster"`
		}
		if err := r.cl.get(ctx, u+"/v1/stats", &doc); err != nil {
			return c, err
		}
		c.plans += doc.PlansComputed
		c.hits += doc.CacheHits
		c.misses += doc.CacheMisses
		if doc.Cluster != nil {
			for _, p := range doc.Cluster.Peers {
				c.peerGets += p.CacheGets
				c.peerHits += p.CacheHits
				c.peerPuts += p.CachePuts
			}
		}
	}
	return c, nil
}

// maxTraceFetches bounds how many plan requests' service traces the traced
// run downloads after its window.
const maxTraceFetches = 120

// serveLayers records the per-layer metrics of a served workload from the
// traced window: client queueing and generator lag, backend calls from the
// timing decorator, server time net of the backend and of the planner span
// the service recorded, cache counters and, in a cluster, the forward hop
// and the peer cache. It also files every request into the span log.
func serveLayers(ctx context.Context, rep *report, r *serveRun, svc *service, plain, tw *window,
	store *storeLog, st0, st1 counters, log *spanLog) error {
	var queue []float64
	for i := range tw.ops {
		if s := &tw.ops[i]; !s.failed {
			queue = append(queue, ms(s.sent.Sub(s.due)))
		}
	}
	rep.add("client.queue_ms_p95", percentile(queue, 95), len(queue))
	rep.add("gen.lag_ms_p99", percentile(plain.lagsMs, 99), len(plain.lagsMs))

	store.mu.Lock()
	calls := append([]storeCall(nil), store.calls...)
	store.mu.Unlock()
	bySid := map[string][]storeCall{}
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, c := range calls {
		bySid[c.sid] = append(bySid[c.sid], c)
		total[c.op] += c.dur
		count[c.op]++
	}
	for _, op := range []string{"put", "get", "delete", "list"} {
		if n := count[op]; n > 0 {
			rep.add("store."+op+"_ms", ms(total[op])/float64(n), n)
		}
		rep.add("store."+op+"s", float64(count[op]), 1)
	}

	analystOf := map[string]int{}
	for i := range tw.ops {
		s := &tw.ops[i]
		analystOf[s.sid] = s.analyst
		log.add(span{name: s.step.String(), start: s.due, dur: s.done.Sub(s.due), parent: -1, pid: pidRequests, tid: s.analyst})
		if s.sent.After(s.due) {
			log.add(span{name: "queue", start: s.due, dur: s.sent.Sub(s.due), parent: -1, pid: pidRequests, tid: s.analyst})
		}
	}
	for _, c := range calls {
		log.add(span{name: "store." + c.op, start: c.start, dur: c.dur, parent: -1, pid: pidStore, tid: analystOf[c.sid]})
	}

	planner, err := r.plannerSpans(ctx, tw.ops, log)
	if err != nil {
		return err
	}
	self := map[string][]float64{}
	size := map[string][]float64{}
	for i := range tw.ops {
		s := &tw.ops[i]
		pt, fetched := planner[s.traceID]
		if s.failed || (s.step == stepPlan && !fetched) {
			continue
		}
		d := s.done.Sub(s.sent) - pt
		for _, c := range bySid[s.sid] {
			if !c.start.Before(s.sent) && !c.start.After(s.done) {
				d -= c.dur
			}
		}
		self[s.class] = append(self[s.class], ms(d))
		size[s.class] = append(size[s.class], float64(s.bytes)/1e3)
	}
	for _, c := range classes {
		rep.add("server.self_ms_p50."+c, percentile(self[c], 50), len(self[c]))
		if n := len(size[c]); n > 0 {
			sum := 0.0
			for _, x := range size[c] {
				sum += x
			}
			rep.add("server.response_kb."+c, sum/float64(n), n)
		}
	}
	if lookups := st1.hits - st0.hits + st1.misses - st0.misses; lookups > 0 {
		rep.add("server.cache_hit_pct", 100*float64(st1.hits-st0.hits)/float64(lookups), int(lookups))
	}
	if svc.cluster == nil {
		return nil
	}

	fwd := map[string][]float64{}
	local := map[string][]float64{}
	forwarded := 0
	for i := range tw.ops {
		s := &tw.ops[i]
		// A session is created on the replica that receives the request,
		// so creates are never forwarded and are left out of both sides.
		if s.failed || s.step == stepCreate {
			continue
		}
		d := ms(s.done.Sub(s.sent))
		if svc.cluster.Owner(cluster.SessionKey(s.sid)) != svc.ids[s.target] {
			forwarded++
			fwd[s.class] = append(fwd[s.class], d)
		} else {
			local[s.class] = append(local[s.class], d)
		}
	}
	rep.add("cluster.forwarded_pct", 100*float64(forwarded)/float64(len(tw.ops)), len(tw.ops))
	for _, c := range classes {
		if len(fwd[c]) > 0 && len(local[c]) > 0 {
			rep.add("cluster.hop_ms_p50."+c, percentile(fwd[c], 50)-percentile(local[c], 50), len(fwd[c]))
		}
	}
	rep.add("cluster.peer_cache_gets", float64(st1.peerGets-st0.peerGets), 1)
	rep.add("cluster.peer_cache_hits", float64(st1.peerHits-st0.peerHits), 1)
	rep.add("cluster.peer_cache_puts", float64(st1.peerPuts-st0.peerPuts), 1)
	rep.add("cluster.plans_computed", float64(st1.plans-st0.plans), 1)
	// Every plan input first seen in the traced run is cold: the warmed
	// shared keys, before and after selection, and each fresh analyst's.
	cold := 2 * len(sharedKeys())
	for _, res := range tw.results {
		if res.a.fresh {
			for _, s := range res.samples {
				if s.step == stepPlan {
					cold++
				}
			}
		}
	}
	rep.add("cluster.cold_keys", float64(cold), 1)
	return nil
}

// plannerSpans downloads the service's traces of up to maxTraceFetches plan
// requests, files their spans into the log, and returns, per trace ID, the
// time the planner.plan spans took.
func (r *serveRun) plannerSpans(ctx context.Context, ops []sample, log *spanLog) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	fetched := 0
	for i := range ops {
		s := &ops[i]
		if s.failed || s.step != stepPlan || s.traceID == "" || fetched == maxTraceFetches {
			continue
		}
		fetched++
		var doc struct {
			Spans []struct {
				Name     string        `json:"name"`
				Start    time.Time     `json:"start"`
				Duration time.Duration `json:"durationNs"`
			} `json:"spans"`
		}
		if err := r.cl.get(ctx, r.cl.urls[s.target]+"/v1/traces/"+s.traceID, &doc); err != nil {
			return nil, fmt.Errorf("fetching the trace of a plan request: %w", err)
		}
		out[s.traceID] += 0 // fetched, even when no planner ran
		for _, sp := range doc.Spans {
			if sp.Name == "planner.plan" {
				out[s.traceID] += sp.Duration
			}
			log.add(span{name: sp.Name, start: sp.Start, dur: sp.Duration, parent: -1, pid: pidServer, tid: s.analyst})
		}
	}
	return out, nil
}
