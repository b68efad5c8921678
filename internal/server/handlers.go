package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"poiesis/internal/cluster"
	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/obs"
	"poiesis/internal/pdi"
	"poiesis/internal/sim"
	"poiesis/internal/workloads"
	"poiesis/internal/xlm"
)

// maxBodyBytes bounds uploaded payloads (flows can be large, plans cannot).
const maxBodyBytes = 16 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// lintFlowConfig statically validates a flow against the planner's declared
// constraint bounds (etl.Lint: structural defects plus unachievable
// constraint sets). On findings it writes the 422 response and reports true.
// 422 rather than 400: the request is syntactically well-formed — the flow
// and constraints are individually valid — but semantically unprocessable.
func lintFlowConfig(w http.ResponseWriter, g *etl.Graph, planner *core.Planner) bool {
	ds := etl.Lint(g, planner.Options().LintBounds())
	if len(ds) == 0 {
		return false
	}
	out := lintErrorJSON{
		Error:       fmt.Sprintf("flow/constraint lint failed: %d problem(s)", len(ds)),
		Diagnostics: make([]diagnosticJSON, 0, len(ds)),
	}
	for _, d := range ds {
		out.Diagnostics = append(out.Diagnostics, diagnosticJSON{Check: d.Check, Pos: d.Pos, Message: d.Message})
	}
	writeJSON(w, http.StatusUnprocessableEntity, out)
	return true
}

// decodeBody decodes a JSON body into v; an empty body leaves v untouched.
func decodeBody(r *http.Request, v any) error {
	b, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(b) == 0 {
		return nil
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parsing body: %w", err)
	}
	return nil
}

// writeBodyError maps a decodeBody failure to its status: an upload past the
// MaxBytesReader limit is 413 with the limit spelled out, not a generic 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// registryKeyFromDoc canonicalizes the part of a configuration document that
// shapes the pattern registry rather than the Options — the custom pattern
// declarations. core.PlanKey cannot see the registry, so this string
// partitions the plan cache: documents without custom patterns share the
// empty suffix (the default registry), documents with them only match
// identical declarations. CustomPatternDoc is plain data (encoding/json
// sorts the Params map keys), so the serialization is deterministic.
func registryKeyFromDoc(doc *config.Document) string {
	if doc == nil || len(doc.CustomPatterns) == 0 {
		return ""
	}
	b, err := json.Marshal(doc.CustomPatterns)
	if err != nil {
		// Unserializable declarations cannot be canonicalized; a random
		// nonce keeps the request out of every other request's cache slot. A
		// pointer-derived suffix would not: a later document allocated at a
		// recycled address would silently share the slot.
		return uncacheableKey()
	}
	return string(b)
}

// uncacheableKey returns a cache-key suffix that matches nothing else, ever.
func uncacheableKey() string {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		panic(fmt.Sprintf("server: reading random cache nonce: %v", err))
	}
	return "uncacheable:" + hex.EncodeToString(nonce[:])
}

// Liveness, service stats, palette and builtin listings -----------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, revision := obs.BuildInfo()
	writeJSON(w, http.StatusOK, healthzJSON{Status: "ok", Version: version, Revision: revision})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, size, bytes := s.cache.stats()
	out := serverStatsJSON{
		Sessions:         s.store.len(),
		Backend:          s.cfg.Backend.Name(),
		SessionsRestored: s.restored,
		PersistErrors:    s.store.persistErrs.Load(),
		EvictQueue:       s.store.evictDepth.Load(),
		Evictions:        s.store.evictsDone.Load(),
		EvictDropped:     s.store.evictDropped.Load(),
		PlansComputed:    s.plansComputed.Load(),
		PlansCached:      s.plansCached.Load(),
		Evaluations:      s.evaluations.Load(),
		CacheHits:        hits,
		CacheMisses:      misses,
		CacheSize:        size,
		CacheBytes:       bytes,
	}
	if s.cluster != nil {
		st := s.cluster.Stats()
		out.Cluster = &st
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		out.Tracing = &ts
		// Peek (no reset): scrape-window resets belong to /metrics alone.
		out.Exemplars = s.metrics.reg.Exemplars()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	type patternJSON struct {
		Name     string `json:"name"`
		Kind     string `json:"kind"`
		Improves string `json:"improves"`
	}
	reg := fcp.DefaultRegistry()
	var out []patternJSON
	for _, name := range reg.Names() {
		p, _ := reg.Get(name)
		out = append(out, patternJSON{
			Name:     p.Name(),
			Kind:     fmt.Sprint(p.Kind()),
			Improves: fmt.Sprint(p.Improves()),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"patterns": out})
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"flows": workloads.Names()})
}

// Session lifecycle -----------------------------------------------------------

type createSessionRequest struct {
	Name string   `json:"name,omitempty"`
	Flow flowSpec `json:"flow"`
	// Scale and Seed drive the synthetic source binding (sim.AutoBinding).
	Scale int    `json:"scale,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Config is the session's default planning configuration; per-request
	// documents on POST .../plan replace it for that request.
	Config *config.Document `json:"config,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	g, err := req.Flow.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := g.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid flow: %v", err)
		return
	}
	planner, err := req.Config.Planner()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if lintFlowConfig(w, g, planner) {
		return
	}
	scale := req.Scale
	if scale <= 0 {
		scale = 2000
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	st := &sessionState{
		id:     s.newOwnedSessionID(),
		name:   req.Name,
		sess:   core.NewSession(planner, g, sim.AutoBinding(g, scale, seed)),
		cfgDoc: req.Config,
		regKey: registryKeyFromDoc(req.Config),
	}
	if err := s.store.add(r.Context(), st); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errTooManySessions) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+st.id)
	writeJSON(w, http.StatusCreated, toSessionJSON(st, true))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	states := s.store.list()
	out := make([]sessionJSON, 0, len(states))
	for _, st := range states {
		out = append(out, toSessionJSON(st, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// session resolves the route's session and stamps it on the request's root
// span, which is what files the request under GET .../trace.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*sessionState, bool) {
	id := r.PathValue("id")
	st, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return nil, false
	}
	obs.SpanFrom(r.Context()).SetAttr("session", id)
	return st, true
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, toSessionJSON(st, true))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	// Like the TTL sweep, never remove a session mid-operation: deleting
	// under an in-flight plan would orphan the run's result and history.
	// (Acquiring store.mu while holding opMu is safe: the sweep only ever
	// TryLocks opMu, so the reversed order cannot deadlock.)
	if !st.opMu.TryLock() {
		writeError(w, http.StatusConflict, "session busy: another plan or select is in flight")
		return
	}
	defer st.opMu.Unlock()
	if !s.store.remove(r.Context(), st.id) {
		writeError(w, http.StatusNotFound, "unknown session %q", st.id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Planning --------------------------------------------------------------------

type planRequest struct {
	// Config, when present, replaces the session's default configuration for
	// this run only (per-request options, constraints and goals).
	Config *config.Document `json:"config,omitempty"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	var req planRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	base := st.sess.Planner()
	regKey := st.regKey
	if req.Config != nil {
		var err error
		if base, err = req.Config.Planner(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The session's flow was linted at create time against the session
		// config; a per-request config brings new constraint bounds, and the
		// flow may have evolved through selections — re-lint the pair.
		if lintFlowConfig(w, st.sess.Current(), base) {
			return
		}
		regKey = registryKeyFromDoc(req.Config)
	}

	// One state-changing operation per session at a time: a concurrent plan
	// or select fails fast instead of queueing behind a long run.
	if !st.opMu.TryLock() {
		writeError(w, http.StatusConflict, "session busy: another plan or select is in flight")
		return
	}
	defer st.opMu.Unlock()

	// A dropped client cancels the in-flight run through the request context.
	ctx := r.Context()

	var stream *sseWriter
	if wantsSSE(r) {
		sse, ok := newSSEWriter(w)
		if !ok {
			writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
			return
		}
		stream = sse
		s.metrics.sseStreams.Inc()
		defer s.metrics.sseStreams.Dec()
		// Keep the connection visibly alive through quiet stretches of the
		// plan (slow alternatives emit no events for their whole runtime).
		stopKeepAlive := s.keepAlive(stream)
		defer stopKeepAlive()
	}

	// The per-request planner is always a fresh instance so installing the
	// progress callback never mutates a planner shared with other requests.
	planner := core.NewPlanner(base.Registry(), base.Options())
	if stream != nil {
		every := 1
		if n, err := strconv.Atoi(r.URL.Query().Get("every")); err == nil && n > 1 {
			every = n
		}
		planner.WithProgress(func(e core.ProgressEvent) {
			if e.Seq%every != 0 {
				return
			}
			errStr := ""
			if e.Err != nil {
				errStr = e.Err.Error()
			}
			_ = stream.event("progress", progressJSON{
				Seq:         e.Seq,
				Label:       e.Label,
				Error:       errStr,
				Generated:   e.Generated,
				Evaluated:   e.Evaluated,
				Kept:        e.Kept,
				SkylineSize: e.SkylineSize,
				StageNs: stageNsJSON{
					PatternApplication: e.StageNs.PatternApplication,
					Evaluation:         e.StageNs.Evaluation,
					ConstraintFilter:   e.StageNs.ConstraintFilter,
					SkylineMerge:       e.StageNs.SkylineMerge,
				},
			})
		})
	}

	key, cacheable := core.PlanKey(st.sess.Current(), st.sess.Binding(), planner.Options())
	// Partition the cache by registry shape: PlanKey canonicalizes Options
	// only, so custom-pattern declarations must contribute to the key.
	key += "|" + regKey
	run := func() (*core.Result, error) {
		res, err := st.sess.ExploreWith(ctx, planner)
		if err != nil {
			return nil, err
		}
		s.plansComputed.Add(1)
		s.evaluations.Add(int64(res.Stats.Evaluated))
		return res, nil
	}

	// Shared cache tier: when another replica owns this plan key, a local
	// miss first asks the owner (one GET, at most one hop) and a local
	// evaluation writes its result through to the owner — so cluster-wide,
	// each fingerprint is evaluated once and then served from caches.
	compute := run
	var fetchedFromPeer bool
	if cacheable && s.cluster != nil {
		if owner := s.cluster.Owner(cluster.CacheKey(key)); owner != s.cluster.Self() {
			compute = func() (*core.Result, error) {
				if res, ok := s.fetchPeerResult(ctx, owner, key); ok {
					fetchedFromPeer = true
					return res, nil
				}
				res, err := run()
				if err == nil {
					s.pushPeerResult(ctx, owner, key, res)
				}
				return res, err
			}
		}
	}

	var res *core.Result
	var hit bool
	var err error
	if cacheable {
		res, hit, err = s.cache.do(ctx, key, compute)
		// A peer-fetched result was not produced by this session's own
		// exploration, so it needs the same adoption as a local cache hit.
		if err == nil && (hit || fetchedFromPeer) {
			s.plansCached.Add(1)
			err = st.sess.AdoptResult(res)
		}
	} else {
		res, err = run()
	}
	if err != nil {
		s.planError(w, stream, ctx, err)
		return
	}
	hit = hit || fetchedFromPeer
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.SetBool("plan.cacheable", cacheable)
		sp.SetBool("plan.cached", hit)
		sp.SetBool("plan.peer_fetch", fetchedFromPeer)
		sp.SetInt("plan.evaluated", int64(res.Stats.Evaluated))
		sp.SetInt("plan.skyline", int64(len(res.SkylineIdx)))
	}
	st.planDone(s.cfg.Now())
	// Write the new state (result, plan count, liveness) through to the
	// backend while opMu still excludes deletion and eviction. A failed
	// write degrades durability only — it is counted, logged, and the
	// response still serves the in-memory result.
	_ = s.store.persist(ctx, st)
	if cacheable {
		s.cache.chargeRecord(key, res)
	}

	traced := obs.Traced(ctx)
	start := time.Now()
	payload := s.planPayload(key, cacheable, res)
	if traced {
		obs.RecordSpan(ctx, "plan.payload", start, time.Since(start))
	}
	payload.Cached = hit
	start = time.Now()
	if stream != nil {
		_ = stream.event("result", payload)
	} else {
		writeJSON(w, http.StatusOK, payload)
	}
	if traced {
		obs.RecordSpan(ctx, "response.encode", start, time.Since(start))
	}
}

// planPayload derives the response body for a plan result. For cacheable
// results the derivation (skyline explanations, pattern usage, full-space
// scatter) is memoized on the cache entry, so the steady-state hot path —
// repeated cache hits — pays only a shallow copy plus encoding.
func (s *Server) planPayload(key string, cacheable bool, res *core.Result) resultJSON {
	if cacheable {
		if m, ok := s.cache.memo(key, func(r *core.Result) any {
			p := toResultJSON(r, false)
			return &p
		}); ok {
			return *(m.(*resultJSON))
		}
	}
	return toResultJSON(res, false)
}

// planError reports a failed plan on whichever channel is open. When the
// client is already gone (context cancelled) nothing useful can be written;
// the attempt is best-effort.
func (s *Server) planError(w http.ResponseWriter, stream *sseWriter, ctx context.Context, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrSessionBusy):
		status = http.StatusConflict
	case errors.Is(err, core.ErrInvalidFlow):
		status = http.StatusUnprocessableEntity
	case ctx.Err() != nil:
		// Client disconnect cancelled the run.
		status = statusClientClosedRequest
	}
	if stream != nil {
		_ = stream.event("error", errorJSON{Error: err.Error()})
		return
	}
	writeError(w, status, "%v", err)
}

// statusClientClosedRequest is nginx's non-standard 499 — the run was
// cancelled because the client went away, so nobody will read this anyway.
const statusClientClosedRequest = 499

// Results ---------------------------------------------------------------------

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	res := st.sess.LastResult()
	if res == nil {
		writeError(w, http.StatusNotFound, "no planning result; POST /v1/sessions/%s/plan first", st.id)
		return
	}
	includeReports := r.URL.Query().Get("reports") == "1"
	writeJSON(w, http.StatusOK, toResultJSON(res, includeReports))
}

// handleTrace serves the session's timeline as a view over the trace ring:
// summaries of this replica's retained traces whose root span carries the
// session (Server.session stamps it), newest first. Plan outcomes are root
// attributes (plan.cached, plan.evaluated, plan.skyline) in
// /v1/traces/{id}.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled on this replica")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": st.id, "traces": s.tracer.TracesWhere("session", st.id)})
}

func (s *Server) handleSkyline(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	res := st.sess.LastResult()
	if res == nil {
		writeError(w, http.StatusNotFound, "no planning result; POST /v1/sessions/%s/plan first", st.id)
		return
	}
	// Lean path: the frontier is small, so don't pay for the full-space
	// scatter projection and pattern-usage analysis on every poll.
	writeJSON(w, http.StatusOK, map[string]any{
		"dims":           dimsOf(res.Dims),
		"skyline":        skylineEntries(res, true),
		"frontierSpread": frontierSpreadJSON(res),
	})
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	g := st.sess.Current()
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	var b []byte
	var err error
	contentType := "application/json"
	switch format {
	case "json":
		b, err = g.MarshalJSON()
	case "dot":
		b, contentType = []byte(g.DOT()), "text/vnd.graphviz"
	case "xlm":
		b, err = xlm.Encode(g)
		contentType = "application/xml"
	case "ktr":
		b, err = pdi.Encode(g)
		contentType = "application/xml"
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, dot, xlm or ktr)", format)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// Selection -------------------------------------------------------------------

type selectRequest struct {
	// Index is the skyline position reported by plan/skyline responses.
	Index int `json:"index"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	st, ok := s.session(w, r)
	if !ok {
		return
	}
	req := selectRequest{Index: -1}
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if !st.opMu.TryLock() {
		writeError(w, http.StatusConflict, "session busy: another plan or select is in flight")
		return
	}
	defer st.opMu.Unlock()

	before := st.sess.Current()
	alt, err := st.sess.Select(req.Index)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrSessionBusy) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	st.touch(s.cfg.Now())
	// Integrating a selection rewrites the current design and history: write
	// it through under opMu, same contract as the plan path.
	_ = s.store.persist(r.Context(), st)
	history := st.sess.History()
	rec := history[len(history)-1]
	writeJSON(w, http.StatusOK, selectResponseJSON{
		Selection: selectionJSON{
			Iteration:   rec.Iteration,
			Label:       rec.Label,
			ScoreBefore: rec.ScoreBefore,
			ScoreAfter:  rec.ScoreAfter,
		},
		Delta: etl.DiffFlows(before, alt.Graph).String(),
		Flow:  alt.Graph.Name,
		Nodes: alt.Graph.Len(),
		Edges: alt.Graph.EdgeCount(),
	})
}
