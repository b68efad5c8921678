package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"poiesis/internal/obs"
)

// scrape fetches /metrics through the handler and parses the exposition.
func scrape(t testing.TB, s *Server) map[string]obs.Sample {
	t.Helper()
	rr := do(t, s, "GET", "/metrics", "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	samples, err := obs.ParseText(rr.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, rr.Body.String())
	}
	out := make(map[string]obs.Sample, len(samples))
	for _, sm := range samples {
		out[sm.Key()] = sm
	}
	return out
}

// sampleValue sums every series of one metric name, across label sets.
func sampleValue(samples map[string]obs.Sample, name string) (float64, bool) {
	var total float64
	found := false
	for _, sm := range samples {
		if sm.Name == name {
			total += sm.Value
			found = true
		}
	}
	return total, found
}

// TestMetricsExposition drives real traffic through the handler and asserts
// the scrape covers every layer: HTTP routes, planner evaluations, plan
// cache, session backend and build identity — and that the format round-trips
// through the strict parser.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "obs")
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
	}
	// Same key: the second plan must be a cache hit.
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != http.StatusOK {
		t.Fatalf("replan: %d %s", rr.Code, rr.Body.String())
	}
	samples := scrape(t, s)

	if v, ok := sampleValue(samples, "poiesis_http_requests_total"); !ok || v < 3 {
		t.Errorf("poiesis_http_requests_total = %v (found %v), want >= 3", v, ok)
	}
	// The plan route must be labeled by its mux pattern, not the raw path.
	route := `route="POST /v1/sessions/{id}/plan"`
	foundRoute := false
	for key := range samples {
		if strings.Contains(key, route) {
			foundRoute = true
			break
		}
	}
	if !foundRoute {
		t.Errorf("no sample labeled %s in scrape", route)
	}
	if v, ok := sampleValue(samples, "poiesis_plan_cache_hits_total"); !ok || v != 1 {
		t.Errorf("poiesis_plan_cache_hits_total = %v (found %v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, "poiesis_plans_computed_total"); !ok || v != 1 {
		t.Errorf("poiesis_plans_computed_total = %v (found %v), want 1", v, ok)
	}
	// The memory backend keeps no records, so its op series are exposed at
	// 0 (TestMemoryModeWritesNoRecord counts them on both backends).
	if _, ok := samples[`poiesis_backend_op_duration_seconds_count{backend="memory",op="put"}`]; !ok {
		t.Error("no memory-backend put histogram in scrape")
	}
	if v, ok := sampleValue(samples, "poiesis_build_info"); !ok || v != 1 {
		t.Errorf("poiesis_build_info = %v (found %v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, "poiesis_evaluations_total"); !ok || v < 1 {
		t.Errorf("poiesis_evaluations_total = %v (found %v), want >= 1", v, ok)
	}
}

// TestStatsGoldenKeys pins the exact top-level key set of /v1/stats: new
// fields must be added here deliberately, and removals are API breaks.
func TestStatsGoldenKeys(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "stats")
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != http.StatusOK {
		t.Fatalf("plan: %d", rr.Code)
	}
	rr := do(t, s, "GET", "/v1/stats", "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d", rr.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(raw))
	for k := range raw {
		got = append(got, k)
	}
	sort.Strings(got)
	// "cluster" is omitempty and absent in single-node mode. "exemplars"
	// and "tracing" are omitempty too but present here: the test server
	// traces every request, so the plan above left collector stats and a
	// latency exemplar.
	want := []string{
		"backend", "cacheBytes", "cacheHits", "cacheMisses", "cacheSize",
		"evaluations", "evictDropped", "evictQueue", "evictions", "exemplars",
		"persistErrors", "plansCached", "plansComputed", "sessions",
		"sessionsRestored", "tracing",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stats keys drifted:\n got %v\nwant %v", got, want)
	}
}

// TestHealthzBuildInfo asserts the liveness probe carries build identity
// (unstamped test binaries report the "unknown" placeholders, never "").
func TestHealthzBuildInfo(t *testing.T) {
	s := newTestServer(t)
	var hz healthzJSON
	if rr := do(t, s, "GET", "/v1/healthz", "", &hz); rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rr.Code)
	}
	if hz.Status != "ok" || hz.Version == "" || hz.Revision == "" {
		t.Errorf("healthz body incomplete: %+v", hz)
	}
}

// TestTraceIDHeader covers the middleware's correlation contract: a bare
// request gets a fresh trace ID, a valid inbound traceparent's trace ID is
// echoed as sent, a malformed one is replaced, and with tracing disabled no
// ID header is sent at all.
func TestTraceIDHeader(t *testing.T) {
	s := newTestServer(t)
	rr := do(t, s, "GET", "/v1/healthz", "", nil)
	if tid := rr.Header().Get(obs.TraceIDHeader); !obs.ValidTraceID(tid) {
		t.Errorf("minted trace ID %q is invalid", tid)
	}

	const callerTID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set(obs.TraceParentHeader, "00-"+callerTID+"-00f067aa0ba902b7-01")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceIDHeader); got != callerTID {
		t.Errorf("caller's trace ID not echoed: got %q", got)
	}

	for _, bad := range []string{"bad id\nwith junk", "00-" + strings.ToUpper(callerTID) + "-00f067aa0ba902b7-01"} {
		req = httptest.NewRequest("GET", "/v1/healthz", nil)
		req.Header.Set(obs.TraceParentHeader, bad)
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if got := rec.Header().Get(obs.TraceIDHeader); !obs.ValidTraceID(got) || got == callerTID {
			t.Errorf("malformed traceparent %q not replaced: got %q", bad, got)
		}
	}

	off := New(Config{TraceSample: -1})
	req = httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set(obs.TraceParentHeader, "00-"+callerTID+"-00f067aa0ba902b7-01")
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, req)
	for _, h := range []string{obs.TraceIDHeader, "X-Poiesis-Request-ID"} {
		if got := rec.Header().Get(h); got != "" {
			t.Errorf("tracing disabled, yet %s = %q", h, got)
		}
	}
}

// TestPlanTrace exercises GET .../trace, the session's view over the trace
// ring: a computed plan, a cached plan and a GET appear newest first, the
// plan roots carry their cache outcome, another session's traces stay out,
// and the route 404s for an unknown session or with tracing disabled.
func TestPlanTrace(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "trace")
	other := createSession(t, s, "other")
	for _, path := range []string{"/v1/sessions/" + id + "/plan", "/v1/sessions/" + id + "/plan", "/v1/sessions/" + other + "/plan"} {
		if rr := do(t, s, "POST", path, "", nil); rr.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rr.Code, rr.Body.String())
		}
	}
	if rr := do(t, s, "GET", "/v1/sessions/"+id, "", nil); rr.Code != http.StatusOK {
		t.Fatalf("get: %d", rr.Code)
	}

	type timeline struct {
		Session string      `json:"session"`
		Traces  []obs.Trace `json:"traces"`
	}
	var body, otherBody timeline
	if rr := do(t, s, "GET", "/v1/sessions/"+id+"/trace", "", &body); rr.Code != http.StatusOK {
		t.Fatalf("trace: %d %s", rr.Code, rr.Body.String())
	}
	if body.Session != id || len(body.Traces) != 3 {
		t.Fatalf("trace body: session %q, %d traces, want 3: %+v", body.Session, len(body.Traces), body.Traces)
	}
	wantRoots := []string{
		"http GET /v1/sessions/{id}",
		"http POST /v1/sessions/{id}/plan",
		"http POST /v1/sessions/{id}/plan",
	}
	for i, tr := range body.Traces {
		if tr.Root != wantRoots[i] {
			t.Errorf("trace %d root %q, want %q", i, tr.Root, wantRoots[i])
		}
		if i > 0 && tr.Start.After(body.Traces[i-1].Start) {
			t.Errorf("trace %d starts after trace %d: not newest first", i, i-1)
		}
	}
	// Newest first: the cache hit, then the computed plan.
	for i, want := range []string{"true", "false"} {
		tid := body.Traces[1+i].ID
		var doc traceDocJSON
		if rr := do(t, s, "GET", "/v1/traces/"+tid, "", &doc); rr.Code != http.StatusOK {
			t.Fatalf("GET trace %s: %d", tid, rr.Code)
		}
		if len(doc.Tree) != 1 || !slices.Contains(doc.Tree[0].Attrs, obs.Attr{Key: "plan.cached", Value: want}) {
			t.Errorf("trace %s root lacks plan.cached=%s: %+v", tid, want, doc.Tree)
		}
	}

	if rr := do(t, s, "GET", "/v1/sessions/"+other+"/trace", "", &otherBody); rr.Code != http.StatusOK {
		t.Fatalf("other trace: %d", rr.Code)
	}
	if len(otherBody.Traces) != 1 {
		t.Fatalf("other session has %d traces, want 1", len(otherBody.Traces))
	}
	for _, tr := range body.Traces {
		if tr.ID == otherBody.Traces[0].ID {
			t.Errorf("trace %s listed under both sessions", tr.ID)
		}
	}

	if rr := do(t, s, "GET", "/v1/sessions/nope/trace", "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown session trace: %d, want 404", rr.Code)
	}
	off := New(Config{TraceSample: -1})
	offID := createSession(t, off, "off")
	if rr := do(t, off, "GET", "/v1/sessions/"+offID+"/trace", "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("trace with tracing disabled: %d, want 404", rr.Code)
	}
}

// TestClusterForwardTraceID boots two replicas with captured access logs
// and sends a session request, carrying the caller's traceparent, to the
// replica that does NOT own it. Exactly one trace ID must appear end-to-end:
// on the response, in the proxying replica's access log, and in the owner's
// access log.
func TestClusterForwardTraceID(t *testing.T) {
	var mu sync.Mutex
	logs := make([][]string, 2)
	_, urls := startReplicas(t, 2, func(i int, cfg *Config) {
		cfg.AccessLogf = func(format string, args ...any) {
			mu.Lock()
			logs[i] = append(logs[i], fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})

	id := clusterCreateSession(t, urls[0], "fwd")
	// The creating replica owns the session, so the other replica forwards.
	req, err := http.NewRequest("GET", urls[1]+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	const tid = "0af7651916cd43dd8448eb211c80319c"
	req.Header.Set(obs.TraceParentHeader, "00-"+tid+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded get: %d", resp.StatusCode)
	}
	// Exactly once: the proxy drops its own copy before relaying the
	// upstream's, so a forwarded response must not double the header.
	if vs := resp.Header.Values(obs.TraceIDHeader); len(vs) != 1 || vs[0] != tid {
		t.Errorf("forwarded response trace ID headers %q, want exactly the caller's", vs)
	}

	// The proxy writes its access line after it has relayed the response,
	// so the client can see the response first: wait for both lines.
	tidLine := regexp.MustCompile(`trace_id=` + tid + `\b`)
	logged := func(i int) bool {
		return slices.ContainsFunc(logs[i], tidLine.MatchString)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		done := logged(0) && logged(1)
		mu.Unlock()
		if done {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, replica := range logs {
		found := false
		for _, line := range replica {
			if tidLine.MatchString(line) && strings.Contains(line, "/v1/sessions/"+id) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("replica %d access log has no line for trace_id=%s:\n%s",
				i, tid, strings.Join(replica, "\n"))
		}
	}
	// The proxying replica must label the request as a forward, not a route.
	foundForward := false
	for _, line := range logs[1] {
		if tidLine.MatchString(line) && strings.Contains(line, `route="forward"`) {
			foundForward = true
		}
	}
	if !foundForward {
		t.Errorf("proxying replica never logged route=\"forward\":\n%s", strings.Join(logs[1], "\n"))
	}
}

// TestMetricsScrapeUnderLoad hammers /metrics while plans run — the scrape
// path locks the registry families the hot path writes through, so this is
// the -race coverage for the whole instrumentation layer.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s := newTestServer(t)
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = createSession(t, s, fmt.Sprintf("load-%d", i))
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil)
				do(t, s, "GET", "/v1/sessions/"+id, "", nil)
			}
		}(id)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				scrape(t, s)
				do(t, s, "GET", "/v1/stats", "", nil)
			}
		}()
	}
	wg.Wait()
	// One final scrape must still parse and reflect the traffic.
	samples := scrape(t, s)
	if v, ok := sampleValue(samples, "poiesis_http_requests_total"); !ok || v < 12 {
		t.Errorf("after load, poiesis_http_requests_total = %v (found %v)", v, ok)
	}
}
