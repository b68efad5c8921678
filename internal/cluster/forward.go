package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"poiesis/internal/obs"
)

// hopByHop lists headers that describe one TCP hop rather than the request
// itself; a proxy must not relay them (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// Forward proxies the request to the owning replica and streams the response
// back. It is the transparent half of session sharding: a client may talk to
// any replica, and a request for a session another replica owns is replayed
// there verbatim — method, path, query, headers and body — with the response
// relayed chunk-by-chunk (each chunk flushed, so forwarded SSE progress
// streams stay live). The outgoing request carries ForwardedHeader with this
// replica's node ID; the receiving replica serves it locally no matter what
// its own ring says, so a request hops at most once.
//
// A peer that cannot be reached is marked down for the cooldown and the
// client gets 503 with a Retry-After; while the cooldown lasts, requests for
// that peer's keys short-circuit without a connection attempt, and the first
// request after it must pass a /v1/readyz probe before forwarding resumes.
func (c *Cluster) Forward(w http.ResponseWriter, r *http.Request, ownerID string) {
	p := c.peers[ownerID]
	if p == nil {
		// Ring and membership are built from the same list, so an unknown
		// owner means a bug, not an operational state.
		forwardError(w, http.StatusInternalServerError, fmt.Sprintf("owner %q is not a known peer", ownerID))
		return
	}
	ctx, span := obs.StartSpan(r.Context(), "cluster.forward")
	defer span.End()
	span.SetAttr("peer.id", ownerID)
	if ok, retry := c.available(ctx, p); !ok {
		span.FailMsg("peer down")
		unavailable(w, p, retry)
		return
	}
	start := time.Now()

	req, err := http.NewRequestWithContext(ctx, r.Method, p.url+r.URL.RequestURI(), r.Body)
	if err != nil {
		span.Fail(err)
		forwardError(w, http.StatusInternalServerError, fmt.Sprintf("building forward request: %v", err))
		return
	}
	req.Header = r.Header.Clone()
	for _, h := range hopByHop {
		req.Header.Del(h)
	}
	req.Header.Set(ForwardedHeader, c.self)
	// Re-stamp the trace context with the forward span, so the peer's
	// fragment grafts under this hop instead of under our HTTP root.
	setTraceParent(ctx, req)
	req.ContentLength = r.ContentLength

	resp, err := c.client.Do(req)
	if err != nil {
		p.forwardErrors.Add(1)
		c.observe(p.id, "forward", start, true)
		if ctx.Err() != nil {
			// The client went away; nothing to report and nobody to report
			// it to — and no reason to penalize the peer.
			return
		}
		span.Fail(err)
		c.markDown(p)
		c.logf("cluster: forwarding %s %s to %s: %v", r.Method, r.URL.Path, p.id, err)
		unavailable(w, p, c.cooldown)
		return
	}
	defer resp.Body.Close()
	p.forwarded.Add(1)
	// Observed at headers-received: a forwarded SSE stream may stay open for
	// minutes, and the peer's responsiveness is what the histogram tracks.
	c.observe(p.id, "forward", start, false)

	h := w.Header()
	// The local middleware already stamped the trace ID and the upstream
	// echoes the same value; drop ours so the client sees it exactly once.
	h.Del(obs.TraceIDHeader)
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	for _, hh := range hopByHop {
		h.Del(hh)
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp)
}

// flushCopy relays the response body, flushing after every chunk so
// incremental payloads (SSE events, keepalive comments) reach the client as
// they are produced instead of sitting in the proxy's buffer.
func flushCopy(w http.ResponseWriter, resp *http.Response) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// unavailable reports a down peer: 503 with a Retry-After telling the load
// balancer (or client) when forwarding might succeed again.
func unavailable(w http.ResponseWriter, p *peer, retry time.Duration) {
	secs := int(retry / time.Second)
	if retry%time.Second != 0 || secs == 0 {
		secs++ // ceil: "Retry-After: 0" invites an immediate hammering
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	forwardError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("replica %s (owner of this session) is unreachable; retry in %ds", p.id, secs))
}

func forwardError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
