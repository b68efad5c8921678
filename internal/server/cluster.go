package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"poiesis/internal/cluster"
	"poiesis/internal/core"
)

// Cluster glue: which requests shard by which keys.
//
// Sessions shard by ID: ServeHTTP intercepts /v1/sessions/{id}... paths and
// proxies them to the ring owner (session IDs are generated to be owned by
// the creating replica, so a session's home never moves while membership is
// stable). Plan-cache entries shard by canonical plan key: the owner is
// asked on a local miss and handed the result after a local evaluation, via
// the /v1/cache endpoints below.

// sessionPathID extracts the session ID from /v1/sessions/{id}[/...] paths;
// empty for everything else (including the collection endpoints).
func sessionPathID(path string) string {
	const prefix = "/v1/sessions/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	id := path[len(prefix):]
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	return id
}

// interceptForward forwards the request to its owning replica when session
// sharding says it lives elsewhere. It reports whether the request was
// handled (forwarded); false means "serve locally". A request already
// carrying the forwarded marker is always served locally — the single-hop
// guarantee — and counted against its origin peer.
func (s *Server) interceptForward(w http.ResponseWriter, r *http.Request) bool {
	if s.cluster == nil {
		return false
	}
	id := sessionPathID(r.URL.Path)
	if id == "" {
		return false
	}
	if origin := r.Header.Get(cluster.ForwardedHeader); origin != "" {
		s.cluster.NoteForwardedIn(origin)
		return false
	}
	owner := s.cluster.Owner(cluster.SessionKey(id))
	if owner == s.cluster.Self() {
		return false
	}
	s.cluster.Forward(w, r, owner)
	return true
}

// newOwnedSessionID draws session IDs until one lands on this replica's arc
// of the ring, so the session's creator is its owner and every other replica
// forwards to it. The expected number of draws is the cluster size; the odds
// of even 64 consecutive misses in an 8-replica cluster are (7/8)^64 ≈ 2e-4,
// and each draw costs one rand read plus one hash.
func (s *Server) newOwnedSessionID() string {
	id := newSessionID()
	if s.cluster == nil {
		return id
	}
	for !s.cluster.IsLocal(cluster.SessionKey(id)) {
		id = newSessionID()
	}
	return id
}

// wireCacheKey encodes a raw plan-cache key for use as a URL path element.
// Raw keys are a hex digest plus the registry-partition suffix, which may
// hold arbitrary JSON bytes; base64url carries both safely.
func wireCacheKey(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

// Readiness and cluster introspection -----------------------------------------

// handleReadyz is the readiness probe: 200 once the backend's sessions are
// restored and (in cluster mode) the ring is configured — both of which New
// completes before it returns the handler, so a replica that answers at all
// answers ready. The endpoint still matters operationally: load balancers
// gate traffic on it (a booting replica mid-restore simply doesn't accept
// connections yet), and a peer's forwarder probes it to decide a
// cooled-down replica is worth forwarding to again. /v1/healthz remains
// pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := readyzJSON{Status: "ready", Backend: s.cfg.Backend.Name(), SessionsRestored: s.restored}
	if s.cluster != nil {
		out.Cluster = true
		out.Node = s.cluster.Self()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCluster reports the replica's view of the cluster: membership, ring
// parameters, per-peer health and traffic counters.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, clusterInfoJSON{Enabled: false})
		return
	}
	st := s.cluster.Stats()
	out := clusterInfoJSON{
		Enabled: true,
		Self:    st.Self,
		VNodes:  st.VNodes,
		Members: s.cluster.Members(),
		Peers:   st.Peers,
	}
	writeJSON(w, http.StatusOK, out)
}

// Shared plan-cache tier: peer-facing endpoints --------------------------------

// maxCachePutBytes bounds a write-through payload. Deliberately far above
// the 16 MiB upload limit: a serialized Result carries the full evaluated
// space and legitimately dwarfs any flow upload.
const maxCachePutBytes = 256 << 20

// requireClusterPeer gates the peer-facing cache endpoints: they exist only
// in cluster mode (404 otherwise — single-node serve exposes exactly the
// pre-cluster surface) and only for callers presenting a known peer's node
// ID in the forwarded marker. The marker is not a credential — replicas are
// expected to be network-isolated together — but it stops stray clients
// from reading, and above all writing, cached plan results by accident.
func (s *Server) requireClusterPeer(w http.ResponseWriter, r *http.Request) (origin string, ok bool) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster replica")
		return "", false
	}
	origin = r.Header.Get(cluster.ForwardedHeader)
	if !s.cluster.KnownPeer(origin) {
		writeError(w, http.StatusForbidden, "cache tier is peer-to-peer only (unknown origin %q)", origin)
		return "", false
	}
	return origin, true
}

// handleCacheGet serves this replica's plan cache to its peers. When the key
// is mid-computation here, the response waits for that computation instead
// of reporting a miss — a peer asking while the owner's own request is still
// evaluating would otherwise start a second, redundant evaluation.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	origin, ok := s.requireClusterPeer(w, r)
	if !ok {
		return
	}
	s.cluster.NoteCacheGetIn(origin)
	raw, err := base64.RawURLEncoding.DecodeString(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed cache key: %v", err)
		return
	}
	res, ok := s.cache.lookup(r.Context(), string(raw), true)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for this key")
		return
	}
	snap, err := core.SnapshotResult(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "serializing cached result: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCachePut accepts a peer's write-through: a result the peer evaluated
// for a key this replica owns. The entry lands in the local cache (unless
// already present or being computed) and is served to every later asker.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	origin, ok := s.requireClusterPeer(w, r)
	if !ok {
		return
	}
	s.cluster.NoteCachePutIn(origin)
	raw, err := base64.RawURLEncoding.DecodeString(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed cache key: %v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCachePutBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var snap core.ResultSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		writeError(w, http.StatusBadRequest, "parsing result snapshot: %v", err)
		return
	}
	res, err := core.RestoreResult(&snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restoring result snapshot: %v", err)
		return
	}
	s.cache.put(string(raw), res)
	w.WriteHeader(http.StatusNoContent)
}

// Shared plan-cache tier: requesting side --------------------------------------

// fetchPeerResult asks the key's owning replica for a cached result and
// rebuilds it. ok is false on any miss or failure — never an error for the
// analyst's request, only a lost sharing opportunity.
func (s *Server) fetchPeerResult(ctx context.Context, ownerID, key string) (*core.Result, bool) {
	payload, ok := s.cluster.FetchCachedResult(ctx, ownerID, wireCacheKey(key))
	if !ok {
		return nil, false
	}
	var snap core.ResultSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		s.logfFor(ctx)("server: parsing peer cache payload from %s: %v", ownerID, err)
		return nil, false
	}
	res, err := core.RestoreResult(&snap)
	if err != nil {
		s.logfFor(ctx)("server: restoring peer cache payload from %s: %v", ownerID, err)
		return nil, false
	}
	return res, true
}

// pushPeerResult writes a locally evaluated result through to the key's
// owner. Best-effort and synchronous: the handler still holds the session's
// opMu, and a deterministic write-through is what lets a test (or an
// operator) observe "evaluate once, then every replica hits" without races.
func (s *Server) pushPeerResult(ctx context.Context, ownerID, key string, res *core.Result) {
	snap, err := core.SnapshotResult(res)
	if err != nil {
		s.logfFor(ctx)("server: serializing result for peer cache %s: %v", ownerID, err)
		return
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		s.logfFor(ctx)("server: encoding result for peer cache %s: %v", ownerID, err)
		return
	}
	if err := s.cluster.PushCachedResult(ctx, ownerID, wireCacheKey(key), payload); err != nil {
		s.logfFor(ctx)("server: pushing result to peer cache %s: %v", ownerID, err)
	}
}
