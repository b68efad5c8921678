package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"poiesis/internal/obs"
)

// The shared plan-cache tier. Every canonical plan key has exactly one
// owning replica (CacheKey on the ring); a replica that misses its local
// cache asks the owner before evaluating, and hands the owner the result
// after evaluating, so across the whole cluster each flow fingerprint is
// evaluated at most once and later requests — on any replica — are served
// from a cache at most one hop away. Payloads are opaque bytes here (the
// server layer speaks core.ResultSnapshot JSON); this package only moves
// and counts them.

// maxCacheFetchBytes bounds a fetched cache payload. Serialized results are
// usually well under the plan cache's own 64 MiB default budget; the bound
// exists so a confused peer cannot make this replica buffer without limit.
const maxCacheFetchBytes = 256 << 20

// FetchCachedResult asks the owning peer for the serialized result under
// wireKey (the base64url form of the canonical plan key). ok is false on a
// peer miss, a down peer, or any transport error — the caller then evaluates
// locally, which is always correct, just not shared.
func (c *Cluster) FetchCachedResult(ctx context.Context, ownerID, wireKey string) (payload []byte, ok bool) {
	p := c.peers[ownerID]
	if p == nil {
		return nil, false
	}
	ctx, span := obs.StartSpan(ctx, "cluster.cache_get")
	defer span.End()
	span.SetAttr("peer.id", ownerID)
	if up, _ := c.available(ctx, p); !up {
		span.FailMsg("peer down")
		return nil, false
	}
	p.cacheGets.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/cache/"+wireKey, nil)
	if err != nil {
		p.cacheErrors.Add(1)
		span.Fail(err)
		return nil, false
	}
	req.Header.Set(ForwardedHeader, c.self)
	setTraceParent(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		p.cacheErrors.Add(1)
		c.observe(p.id, "cache_get", start, true)
		if ctx.Err() == nil {
			c.markDown(p)
			c.logf("cluster: cache fetch from %s: %v", p.id, err)
		}
		span.Fail(err)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		// A miss is a normal outcome, not a failed call.
		c.observe(p.id, "cache_get", start, resp.StatusCode != http.StatusNotFound)
		span.SetBool("hit", false)
		if resp.StatusCode != http.StatusNotFound {
			p.cacheErrors.Add(1)
			c.logf("cluster: cache fetch from %s: status %d", p.id, resp.StatusCode)
			span.FailMsg("status " + resp.Status)
		}
		return nil, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxCacheFetchBytes+1))
	if err != nil || int64(len(b)) > maxCacheFetchBytes {
		p.cacheErrors.Add(1)
		c.observe(p.id, "cache_get", start, true)
		span.FailMsg("payload truncated or unreadable")
		return nil, false
	}
	p.cacheHits.Add(1)
	c.observe(p.id, "cache_get", start, false)
	span.SetBool("hit", true)
	span.SetInt("bytes", int64(len(b)))
	return b, true
}

// setTraceParent stamps the context's active span as the W3C traceparent of
// an intra-cluster request, so the receiving replica's trace fragment grafts
// under the calling span and one analyst request keeps one trace ID across
// every hop.
func setTraceParent(ctx context.Context, req *http.Request) {
	if sp := obs.SpanFrom(ctx); sp != nil {
		req.Header.Set(obs.TraceParentHeader, sp.TraceParent())
	}
}

// PushCachedResult writes a freshly computed result through to the key's
// owning peer, so the next replica that misses on this key finds it at the
// owner. Strictly best-effort: a failed push costs future sharing, never the
// current response.
func (c *Cluster) PushCachedResult(ctx context.Context, ownerID, wireKey string, payload []byte) error {
	p := c.peers[ownerID]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %q", ownerID)
	}
	ctx, span := obs.StartSpan(ctx, "cluster.cache_put")
	defer span.End()
	span.SetAttr("peer.id", ownerID)
	span.SetInt("bytes", int64(len(payload)))
	if up, _ := c.available(ctx, p); !up {
		span.FailMsg("peer down")
		return fmt.Errorf("cluster: peer %s is down", ownerID)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.url+"/v1/cache/"+wireKey, bytes.NewReader(payload))
	if err != nil {
		p.cacheErrors.Add(1)
		span.Fail(err)
		return err
	}
	req.Header.Set(ForwardedHeader, c.self)
	req.Header.Set("Content-Type", "application/json")
	setTraceParent(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		p.cacheErrors.Add(1)
		c.observe(p.id, "cache_put", start, true)
		if ctx.Err() == nil {
			c.markDown(p)
			c.logf("cluster: cache push to %s: %v", p.id, err)
		}
		span.Fail(err)
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		p.cacheErrors.Add(1)
		c.observe(p.id, "cache_put", start, true)
		c.logf("cluster: cache push to %s: status %d", p.id, resp.StatusCode)
		span.FailMsg("status " + resp.Status)
		return fmt.Errorf("cluster: cache push to %s: status %d", ownerID, resp.StatusCode)
	}
	p.cachePuts.Add(1)
	c.observe(p.id, "cache_put", start, false)
	return nil
}
