package cluster

import (
	"context"
	"io"
	"net/http"
	"time"
)

// maxTraceFetchBytes bounds a fetched trace payload. Traces are capped at a
// few hundred spans per fragment, so 8 MiB is generous; the bound exists so
// a confused peer cannot make this replica buffer without limit.
const maxTraceFetchBytes = 8 << 20

// FetchTrace asks one peer for its locally retained fragment of a trace
// (GET /v1/traces/{id}?local=1). ok is false when the peer does not hold the
// trace, is down, or the call fails — trace assembly is best-effort
// introspection, so the caller just renders what it has. The payload is the
// peer's JSON trace document; the server layer decodes and merges it.
func (c *Cluster) FetchTrace(ctx context.Context, peerID, traceID string) (payload []byte, ok bool) {
	p := c.peers[peerID]
	if p == nil {
		return nil, false
	}
	if up, _ := c.available(ctx, p); !up {
		return nil, false
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/traces/"+traceID+"?local=1", nil)
	if err != nil {
		return nil, false
	}
	req.Header.Set(ForwardedHeader, c.self)
	setTraceParent(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		c.observe(p.id, "trace_get", start, true)
		if ctx.Err() == nil {
			c.markDown(p)
		}
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		// A peer without the fragment answers 404; that is a normal outcome.
		c.observe(p.id, "trace_get", start, resp.StatusCode != http.StatusNotFound)
		return nil, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceFetchBytes+1))
	if err != nil || int64(len(b)) > maxTraceFetchBytes {
		c.observe(p.id, "trace_get", start, true)
		return nil, false
	}
	c.observe(p.id, "trace_get", start, false)
	return b, true
}
