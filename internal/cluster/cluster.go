package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ForwardedHeader marks intra-cluster HTTP calls with the origin replica's
// node ID. A request carrying it is never forwarded again — whatever replica
// receives it serves it locally — so membership disagreements between
// replicas degrade to a 404 on the wrong replica instead of a proxy loop.
const ForwardedHeader = "X-Poiesis-Forwarded"

// Member identifies one replica of the cluster: its stable node ID (the hash
// ring operates on IDs) and the base URL peers reach it at.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config assembles a Cluster.
type Config struct {
	// Self is this replica's node ID; it must appear in Members.
	Self string
	// Members is the full static membership, including self. Every replica
	// must be started with an identical list (order is irrelevant — the ring
	// sorts) or replicas will disagree about ownership.
	Members []Member
	// VNodes is the virtual points per member on the ring. Default
	// DefaultVNodes. All replicas must use the same value.
	VNodes int
	// Client performs intra-cluster HTTP calls. The default client dials
	// with a short timeout but never bounds the response body — forwarded
	// SSE streams are open-ended.
	Client *http.Client
	// Cooldown is how long a peer that failed a forward is considered down:
	// requests owned by it short-circuit to 503 + Retry-After until the
	// cooldown elapses and a readiness probe succeeds. Default 3s.
	Cooldown time.Duration
	// ResponseHeaderTimeout bounds how long a peer may sit on a request
	// before sending response headers (only used when Client is nil). It is
	// what turns a wedged-but-listening peer into a tripped cooldown instead
	// of an analyst request that hangs forever. SSE streams send headers
	// immediately and are unaffected; a forwarded non-streaming plan must
	// finish computing within this budget, so plans expected to run longer
	// should stream. Default 5m.
	ResponseHeaderTimeout time.Duration
	// ProbeTimeout bounds the /v1/readyz probe that revives a cooled-down
	// peer. Default 1s.
	ProbeTimeout time.Duration
	// Logf reports forward failures and peer state changes. Default: drop.
	Logf func(format string, args ...any)
	// Now is the clock; tests inject a fake. Default time.Now.
	Now func() time.Time
}

// Cluster is the replica-local view of the cluster: the ring, the peers and
// the counters. All methods are safe for concurrent use.
type Cluster struct {
	self         string
	ring         *Ring
	members      []Member // sorted by ID
	peers        map[string]*peer
	client       *http.Client
	cooldown     time.Duration
	probeTimeout time.Duration
	logf         func(format string, args ...any)
	now          func() time.Time
	observer     Observer
}

// Observer receives one sample per outbound peer call. op is "forward",
// "cache_get" or "cache_put"; failed marks transport errors and error
// statuses (a cache miss is not a failure). Calls are synchronous on the
// request path, so observers must be cheap.
type Observer func(peerID, op string, d time.Duration, failed bool)

// SetObserver installs the outbound-call observer. Wire it during server
// construction, before the cluster serves traffic; it is not synchronized
// against in-flight calls.
func (c *Cluster) SetObserver(fn Observer) { c.observer = fn }

// observe reports one finished outbound call to the observer, if any.
// Durations use the wall clock, not c.now — the fake test clock never
// advances mid-call and latency histograms want real elapsed time.
func (c *Cluster) observe(peerID, op string, start time.Time, failed bool) {
	if c.observer != nil {
		c.observer(peerID, op, time.Since(start), failed)
	}
}

// peer is one remote replica plus its health state and traffic counters.
type peer struct {
	id  string
	url string // base URL, no trailing slash

	// mu guards downUntil; counters are atomics.
	mu        sync.Mutex
	downUntil time.Time

	// Outbound: calls this replica made to the peer.
	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	cacheGets     atomic.Int64
	cacheHits     atomic.Int64
	cachePuts     atomic.Int64
	cacheErrors   atomic.Int64

	// Inbound: calls the peer made to this replica (counted by the server
	// layer via the Note* hooks, keyed off ForwardedHeader).
	forwardedIn atomic.Int64
	cacheGetsIn atomic.Int64
	cachePutsIn atomic.Int64
}

// New validates the membership and builds the replica's cluster runtime.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: missing node ID (which member of the peer list is this replica?)")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	members := append([]Member(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	ids := make([]string, 0, len(members))
	selfSeen := false
	for i, m := range members {
		if err := validateMember(m); err != nil {
			return nil, err
		}
		if i > 0 && members[i-1].ID == m.ID {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", m.ID)
		}
		if m.ID == cfg.Self {
			selfSeen = true
		}
		ids = append(ids, m.ID)
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: node ID %q is not in the peer list %v", cfg.Self, ids)
	}
	ring, err := NewRing(ids, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		self:         cfg.Self,
		ring:         ring,
		members:      members,
		peers:        make(map[string]*peer, len(members)-1),
		client:       cfg.Client,
		cooldown:     cfg.Cooldown,
		probeTimeout: cfg.ProbeTimeout,
		logf:         cfg.Logf,
		now:          cfg.Now,
	}
	if c.client == nil {
		rht := cfg.ResponseHeaderTimeout
		if rht <= 0 {
			rht = 5 * time.Minute
		}
		c.client = defaultClient(rht)
	}
	if c.cooldown <= 0 {
		c.cooldown = 3 * time.Second
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = time.Second
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	for _, m := range members {
		if m.ID == cfg.Self {
			continue
		}
		c.peers[m.ID] = &peer{id: m.ID, url: strings.TrimRight(m.URL, "/")}
	}
	return c, nil
}

func validateMember(m Member) error {
	if m.ID == "" {
		return fmt.Errorf("cluster: member with empty node ID (url %q)", m.URL)
	}
	if strings.ContainsAny(m.ID, "=,/ ") {
		return fmt.Errorf("cluster: node ID %q must not contain '=', ',', '/' or spaces", m.ID)
	}
	u, err := url.Parse(m.URL)
	if err != nil {
		return fmt.Errorf("cluster: member %s: invalid URL %q: %w", m.ID, m.URL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: member %s: URL %q must be http(s)://host[:port]", m.ID, m.URL)
	}
	return nil
}

// defaultClient dials fast and fails fast on unreachable peers, and bounds
// the wait for response *headers* — an alive-but-wedged peer must become a
// client.Do error so the cooldown machinery sees it. The response *body*
// stays open-ended: a forwarded plan may legitimately stream SSE progress
// for minutes.
func defaultClient(responseHeaderTimeout time.Duration) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost:   32,
			IdleConnTimeout:       90 * time.Second,
			ResponseHeaderTimeout: responseHeaderTimeout,
		},
	}
}

// ParsePeers parses the -peers CLI spec: comma-separated id=url pairs, e.g.
// "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080". Validation of IDs and
// URLs happens in New.
func ParsePeers(spec string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("cluster: peer %q: want id=url", part)
		}
		out = append(out, Member{ID: strings.TrimSpace(id), URL: strings.TrimSpace(u)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list %q", spec)
	}
	return out, nil
}

// Self returns this replica's node ID.
func (c *Cluster) Self() string { return c.self }

// Members returns the full membership sorted by node ID.
func (c *Cluster) Members() []Member { return append([]Member(nil), c.members...) }

// Owner returns the node ID owning a ring key (use SessionKey / CacheKey to
// namespace).
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// IsLocal reports whether this replica owns the ring key.
func (c *Cluster) IsLocal(key string) bool { return c.ring.Owner(key) == c.self }

// markDown records a failed call to the peer; until the cooldown elapses,
// calls owned by it short-circuit.
func (c *Cluster) markDown(p *peer) {
	until := c.now().Add(c.cooldown)
	p.mu.Lock()
	wasUp := p.downUntil.Before(c.now())
	p.downUntil = until
	p.mu.Unlock()
	if wasUp {
		c.logf("cluster: peer %s (%s) unreachable, backing off %s", p.id, p.url, c.cooldown)
	}
}

// available reports whether the peer may be called. A peer inside its
// cooldown window is skipped outright (retryAfter says for how long); one
// whose cooldown has elapsed must first pass a /v1/readyz probe — the probe
// is what revives a dead peer, so a replica that restarted is picked back up
// within one cooldown without any background loop.
func (c *Cluster) available(ctx context.Context, p *peer) (ok bool, retryAfter time.Duration) {
	now := c.now()
	// One read: a concurrent successful probe may zero downUntil at any
	// moment, and a second read would then yield a negative wait.
	p.mu.Lock()
	until := p.downUntil
	p.mu.Unlock()
	if until.After(now) {
		return false, until.Sub(now)
	}
	if !until.IsZero() {
		if !c.probe(ctx, p) {
			c.markDown(p)
			return false, c.cooldown
		}
		p.mu.Lock()
		p.downUntil = time.Time{}
		p.mu.Unlock()
		c.logf("cluster: peer %s (%s) ready again", p.id, p.url)
	}
	return true, 0
}

// probe asks the peer's readiness endpoint whether it can serve. It runs on
// a request path (the first request after a cooldown expires), so the probe
// deadline is layered onto the triggering request's context: the client
// hanging up cancels the probe too.
func (c *Cluster) probe(ctx context.Context, p *peer) bool {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/readyz", nil)
	if err != nil {
		return false
	}
	req.Header.Set(ForwardedHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode == http.StatusOK
}

// KnownPeer reports whether origin names another member of this cluster.
// The peer-facing cache endpoints accept traffic only from known peers: the
// forwarded marker is no cryptographic credential, but it keeps stray or
// confused clients from reading or writing the cache tier by accident —
// network isolation of the replica group remains the real boundary.
func (c *Cluster) KnownPeer(origin string) bool {
	return c.peers[origin] != nil
}

// NoteForwardedIn counts a session request that arrived forwarded from the
// origin replica. Unknown origins (a peer list drifted) are ignored.
func (c *Cluster) NoteForwardedIn(origin string) {
	if p := c.peers[origin]; p != nil {
		p.forwardedIn.Add(1)
	}
}

// NoteCacheGetIn counts a plan-cache lookup served for the origin replica.
func (c *Cluster) NoteCacheGetIn(origin string) {
	if p := c.peers[origin]; p != nil {
		p.cacheGetsIn.Add(1)
	}
}

// NoteCachePutIn counts a plan-cache write-through received from the origin
// replica.
func (c *Cluster) NoteCachePutIn(origin string) {
	if p := c.peers[origin]; p != nil {
		p.cachePutsIn.Add(1)
	}
}

// PeerStats is a point-in-time snapshot of one peer's state and counters.
type PeerStats struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Down bool   `json:"down"`

	Forwarded     int64 `json:"forwarded"`
	ForwardErrors int64 `json:"forwardErrors,omitempty"`
	CacheGets     int64 `json:"cacheGets"`
	CacheHits     int64 `json:"cacheHits"`
	CachePuts     int64 `json:"cachePuts"`
	CacheErrors   int64 `json:"cacheErrors,omitempty"`

	ForwardedIn int64 `json:"forwardedIn"`
	CacheGetsIn int64 `json:"cacheGetsIn"`
	CachePutsIn int64 `json:"cachePutsIn"`
}

// Stats is the cluster section of /v1/stats and /v1/cluster.
type Stats struct {
	Self   string      `json:"self"`
	VNodes int         `json:"vnodes"`
	Peers  []PeerStats `json:"peers"`
}

// Stats snapshots the per-peer counters, sorted by peer ID.
func (c *Cluster) Stats() Stats {
	out := Stats{Self: c.self, VNodes: c.ring.VNodes()}
	now := c.now()
	for _, m := range c.members {
		p := c.peers[m.ID]
		if p == nil {
			continue // self
		}
		p.mu.Lock()
		down := p.downUntil.After(now)
		p.mu.Unlock()
		out.Peers = append(out.Peers, PeerStats{
			ID:            p.id,
			URL:           p.url,
			Down:          down,
			Forwarded:     p.forwarded.Load(),
			ForwardErrors: p.forwardErrors.Load(),
			CacheGets:     p.cacheGets.Load(),
			CacheHits:     p.cacheHits.Load(),
			CachePuts:     p.cachePuts.Load(),
			CacheErrors:   p.cacheErrors.Load(),
			ForwardedIn:   p.forwardedIn.Load(),
			CacheGetsIn:   p.cacheGetsIn.Load(),
			CachePutsIn:   p.cachePutsIn.Load(),
		})
	}
	return out
}
