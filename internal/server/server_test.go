package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastPlanBody is a session-creation payload whose plans finish in
// milliseconds: tiny flow, shallow search, few Monte-Carlo runs.
func fastPlanBody(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"flow": {"builtin": "tpcds-purchases"},
		"scale": 100,
		"config": {"policy": "greedy", "topK": 1, "depth": 1, "sim": {"runs": 4, "defaultRows": 100}}
	}`, name)
}

func newTestServer(t testing.TB) *Server {
	t.Helper()
	return New(Config{})
}

// do runs one request through the handler and decodes the JSON body into out
// (when out is non-nil).
func do(t testing.TB, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if out != nil && rr.Code < 300 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr
}

func createSession(t testing.TB, s *Server, name string) string {
	t.Helper()
	var sj sessionJSON
	rr := do(t, s, "POST", "/v1/sessions", fastPlanBody(name), &sj)
	if rr.Code != http.StatusCreated {
		t.Fatalf("create session: %d %s", rr.Code, rr.Body.String())
	}
	if sj.ID == "" {
		t.Fatal("create session: empty id")
	}
	return sj.ID
}

func TestHealthAndListings(t *testing.T) {
	s := newTestServer(t)
	if rr := do(t, s, "GET", "/v1/healthz", "", nil); rr.Code != 200 {
		t.Errorf("healthz: %d", rr.Code)
	}
	var flows struct {
		Flows []string `json:"flows"`
	}
	do(t, s, "GET", "/v1/flows", "", &flows)
	if len(flows.Flows) != 5 {
		t.Errorf("flows: got %v", flows.Flows)
	}
	var pats struct {
		Patterns []struct{ Name string } `json:"patterns"`
	}
	do(t, s, "GET", "/v1/patterns", "", &pats)
	if len(pats.Patterns) == 0 {
		t.Error("no patterns listed")
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "alice")

	var got sessionJSON
	if rr := do(t, s, "GET", "/v1/sessions/"+id, "", &got); rr.Code != 200 {
		t.Fatalf("get session: %d", rr.Code)
	}
	if got.Flow == "" || got.Nodes == 0 || got.Name != "alice" {
		t.Errorf("session detail incomplete: %+v", got)
	}

	var list struct {
		Sessions []sessionJSON `json:"sessions"`
	}
	do(t, s, "GET", "/v1/sessions", "", &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != id {
		t.Errorf("list: %+v", list)
	}

	if rr := do(t, s, "DELETE", "/v1/sessions/"+id, "", nil); rr.Code != http.StatusNoContent {
		t.Errorf("delete: %d", rr.Code)
	}
	if rr := do(t, s, "GET", "/v1/sessions/"+id, "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("get after delete: %d", rr.Code)
	}
}

func TestNotFoundAndBadPayloads(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/sessions/nope", "", 404},
		{"POST", "/v1/sessions/nope/plan", "", 404},
		{"POST", "/v1/sessions/nope/select", `{"index":0}`, 404},
		{"GET", "/v1/sessions/nope/result", "", 404},
		{"GET", "/v1/sessions/nope/skyline", "", 404},
		{"GET", "/v1/sessions/nope/flow", "", 404},
		{"DELETE", "/v1/sessions/nope", "", 404},
		{"POST", "/v1/sessions", `{"flow": {}}`, 400},
		{"POST", "/v1/sessions", `{"flow": {"builtin": "no-such-flow"}}`, 400},
		{"POST", "/v1/sessions", `{"flow": {"builtin": "tpcds-purchases", "xlm": "<x/>"}}`, 400},
		{"POST", "/v1/sessions", `not json`, 400},
		{"POST", "/v1/sessions", `{"flow": {"builtin": "tpcds-purchases"}, "config": {"policy": "bogus"}}`, 400},
		{"POST", "/v1/sessions", `{"flow": {"graph": {"name": "x", "nodes": [], "edges": []}}}`, 400},
	}
	for _, c := range cases {
		rr := do(t, s, c.method, c.path, c.body, nil)
		if rr.Code != c.want {
			t.Errorf("%s %s: got %d want %d (%s)", c.method, c.path, rr.Code, c.want, rr.Body.String())
		}
		if rr.Code >= 400 {
			var e errorJSON
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s %s: error body not JSON: %q", c.method, c.path, rr.Body.String())
			}
		}
	}
}

// TestExploreSelectLoop drives the full loop over HTTP: create → plan →
// skyline → select → re-plan, the acceptance path of the service.
func TestExploreSelectLoop(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "")

	var res resultJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", &res); rr.Code != 200 {
		t.Fatalf("plan: %d %s", rr.Code, rr.Body.String())
	}
	if res.Cached {
		t.Error("first plan reported cached")
	}
	if res.Alternatives == 0 || res.SkylineSize == 0 || len(res.Skyline) != res.SkylineSize {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Stats.Evaluated == 0 {
		t.Error("no evaluations recorded")
	}
	if len(res.Scatter) == 0 {
		t.Error("no scatter export")
	}

	var sky struct {
		Skyline []skylineEntryJSON `json:"skyline"`
	}
	if rr := do(t, s, "GET", "/v1/sessions/"+id+"/skyline", "", &sky); rr.Code != 200 {
		t.Fatalf("skyline: %d", rr.Code)
	}
	if len(sky.Skyline) != res.SkylineSize {
		t.Fatalf("skyline size mismatch: %d vs %d", len(sky.Skyline), res.SkylineSize)
	}
	if sky.Skyline[0].Report == nil || len(sky.Skyline[0].Report.Chars) == 0 {
		t.Error("skyline endpoint lacks measure reports")
	}

	var full resultJSON
	if rr := do(t, s, "GET", "/v1/sessions/"+id+"/result?reports=1", "", &full); rr.Code != 200 {
		t.Fatalf("result: %d", rr.Code)
	}
	if full.Skyline[0].Report == nil {
		t.Error("result?reports=1 lacks reports")
	}

	var sel selectResponseJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/select", `{"index": 0}`, &sel); rr.Code != 200 {
		t.Fatalf("select: %d %s", rr.Code, rr.Body.String())
	}
	if sel.Selection.Iteration != 1 || sel.Selection.Label == "" || sel.Delta == "" {
		t.Errorf("selection response incomplete: %+v", sel)
	}

	// Result is consumed by the selection.
	if rr := do(t, s, "GET", "/v1/sessions/"+id+"/result", "", nil); rr.Code != 404 {
		t.Errorf("result after select: %d", rr.Code)
	}
	// Bad selects.
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/select", `{"index": 0}`, nil); rr.Code != 400 {
		t.Errorf("select without result: %d", rr.Code)
	}

	// Re-plan from the integrated design: the flow changed, so this is a
	// cache miss, and the session history shows one iteration.
	var res2 resultJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", &res2); rr.Code != 200 {
		t.Fatalf("re-plan: %d %s", rr.Code, rr.Body.String())
	}
	if res2.Cached {
		t.Error("re-plan after select reported cached; the flow changed")
	}
	var detail sessionJSON
	do(t, s, "GET", "/v1/sessions/"+id, "", &detail)
	if detail.Iterations != 1 || detail.Plans != 2 {
		t.Errorf("session detail after loop: %+v", detail)
	}

	// Select out of range on the fresh result.
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/select", `{"index": 9999}`, nil); rr.Code != 400 {
		t.Errorf("select out of range: %d", rr.Code)
	}
}

func TestFlowExportFormats(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "")
	for format, needle := range map[string]string{
		"json": `"nodes"`,
		"dot":  "digraph",
		"xlm":  "<",
		"ktr":  "<",
	} {
		rr := do(t, s, "GET", "/v1/sessions/"+id+"/flow?format="+format, "", nil)
		if rr.Code != 200 || !strings.Contains(rr.Body.String(), needle) {
			t.Errorf("flow format %s: %d %.80s", format, rr.Code, rr.Body.String())
		}
	}
	if rr := do(t, s, "GET", "/v1/sessions/"+id+"/flow?format=bogus", "", nil); rr.Code != 400 {
		t.Errorf("bogus format: %d", rr.Code)
	}
}

// TestPlanCacheAcrossSessions is the acceptance test for the plan cache: two
// sessions planning the same flow with the same options — the second request
// is served from cache and performs no new evaluations.
func TestPlanCacheAcrossSessions(t *testing.T) {
	s := newTestServer(t)
	idA := createSession(t, s, "a")
	idB := createSession(t, s, "b")

	var resA resultJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+idA+"/plan", "", &resA); rr.Code != 200 {
		t.Fatalf("plan A: %d %s", rr.Code, rr.Body.String())
	}
	var stats1 serverStatsJSON
	do(t, s, "GET", "/v1/stats", "", &stats1)
	if stats1.PlansComputed != 1 || stats1.Evaluations == 0 {
		t.Fatalf("after first plan: %+v", stats1)
	}

	var resB resultJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+idB+"/plan", "", &resB); rr.Code != 200 {
		t.Fatalf("plan B: %d %s", rr.Code, rr.Body.String())
	}
	if !resB.Cached {
		t.Error("second session's identical plan not served from cache")
	}
	var stats2 serverStatsJSON
	do(t, s, "GET", "/v1/stats", "", &stats2)
	if stats2.Evaluations != stats1.Evaluations {
		t.Errorf("cache hit performed new evaluations: %d -> %d", stats1.Evaluations, stats2.Evaluations)
	}
	if stats2.PlansComputed != 1 || stats2.PlansCached != 1 || stats2.CacheHits != 1 {
		t.Errorf("stats after cache hit: %+v", stats2)
	}
	if resA.Alternatives != resB.Alternatives || resA.SkylineSize != resB.SkylineSize {
		t.Errorf("cached result differs: %+v vs %+v", resA.Stats, resB.Stats)
	}

	// The cached result is fully usable: session B can select from it.
	if rr := do(t, s, "POST", "/v1/sessions/"+idB+"/select", `{"index": 0}`, nil); rr.Code != 200 {
		t.Errorf("select from cached result: %d", rr.Code)
	}

	// Different per-request options → different key → cache miss.
	var resC resultJSON
	body := `{"config": {"policy": "greedy", "topK": 2, "depth": 1, "sim": {"runs": 4, "defaultRows": 100}}}`
	if rr := do(t, s, "POST", "/v1/sessions/"+idA+"/plan", body, &resC); rr.Code != 200 {
		t.Fatalf("plan with overrides: %d %s", rr.Code, rr.Body.String())
	}
	if resC.Cached {
		t.Error("different options served from cache")
	}
}

// TestPlanCacheRegistryPartition guards the cache against registry
// cross-contamination: core.PlanKey canonicalizes Options only, so a config
// with custom patterns must not share a cache entry with a default-registry
// plan of the same flow and options — and two different custom-pattern
// declarations must not share one either.
func TestPlanCacheRegistryPartition(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "")

	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", "", nil); rr.Code != 200 {
		t.Fatalf("baseline plan: %d %s", rr.Code, rr.Body.String())
	}
	withPattern := `{"config": {
		"policy": "greedy", "topK": 1, "depth": 1, "sim": {"runs": 4, "defaultRows": 100},
		"customPatterns": [{"name": "EnableRBAC", "kind": "graph", "improves": "manageability", "params": {"security.rbac": "%s"}}]
	}}`
	var res resultJSON
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", fmt.Sprintf(withPattern, "1"), &res); rr.Code != 200 {
		t.Fatalf("custom-pattern plan: %d %s", rr.Code, rr.Body.String())
	}
	if res.Cached {
		t.Error("custom-pattern plan served from the default-registry cache entry")
	}
	// Same declaration again: now it may (and should) hit its own entry.
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", fmt.Sprintf(withPattern, "1"), &res); rr.Code != 200 {
		t.Fatalf("repeat custom-pattern plan: %d", rr.Code)
	}
	if !res.Cached {
		t.Error("identical custom-pattern plan not cached")
	}
	// A different declaration is a different registry: no sharing.
	if rr := do(t, s, "POST", "/v1/sessions/"+id+"/plan", fmt.Sprintf(withPattern, "2"), &res); rr.Code != 200 {
		t.Fatalf("variant custom-pattern plan: %d", rr.Code)
	}
	if res.Cached {
		t.Error("different custom-pattern declarations shared a cache entry")
	}
}

// TestPlanSSE exercises the Server-Sent Events progress stream: progress
// events arrive per alternative, then one result event terminates the
// stream.
func TestPlanSSE(t *testing.T) {
	s := newTestServer(t)
	id := createSession(t, s, "")

	req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/plan", nil)
	req.Header.Set("Accept", "text/event-stream")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)

	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := parseSSE(t, rr.Body.String())
	var progress, results int
	var lastProgress progressJSON
	var lastData string
	for _, e := range events {
		switch e.name {
		case "progress":
			progress++
			lastData = e.data
			if err := json.Unmarshal([]byte(e.data), &lastProgress); err != nil {
				t.Fatalf("progress payload: %v", err)
			}
		case "result":
			results++
			var res resultJSON
			if err := json.Unmarshal([]byte(e.data), &res); err != nil {
				t.Fatalf("result payload: %v", err)
			}
			if res.Alternatives == 0 {
				t.Error("SSE result empty")
			}
		default:
			t.Errorf("unexpected event %q", e.name)
		}
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}
	if results != 1 {
		t.Errorf("got %d result events, want 1", results)
	}
	if lastProgress.Evaluated == 0 {
		t.Errorf("last progress event shows no evaluations: %+v", lastProgress)
	}
	// stageNs keeps its wire shape: all four stage keys, with evaluation
	// time accumulated by the end of the run.
	var wire struct {
		StageNs map[string]int64 `json:"stageNs"`
	}
	if err := json.Unmarshal([]byte(lastData), &wire); err != nil {
		t.Fatalf("progress payload: %v", err)
	}
	for _, k := range []string{"patternApplication", "evaluation", "constraintFilter", "skylineMerge"} {
		if _, ok := wire.StageNs[k]; !ok {
			t.Errorf("last progress stageNs %v lacks %q", wire.StageNs, k)
		}
	}
	if wire.StageNs["evaluation"] <= 0 {
		t.Errorf("last progress stageNs %v: want evaluation > 0", wire.StageNs)
	}
	// Cached SSE plan: a fresh session over the same flow+options streams
	// only the result event.
	id2 := createSession(t, s, "")
	req2 := httptest.NewRequest("POST", "/v1/sessions/"+id2+"/plan?stream=sse", nil)
	rr2 := httptest.NewRecorder()
	s.ServeHTTP(rr2, req2)
	events2 := parseSSE(t, rr2.Body.String())
	if len(events2) != 1 {
		t.Fatalf("cached SSE stream: %d events, want 1 (result only)", len(events2))
	}
	if events2[0].name != "result" {
		t.Fatalf("cached SSE stream: first event %q, want result", events2[0].name)
	}
	var cached resultJSON
	if err := json.Unmarshal([]byte(events2[0].data), &cached); err != nil || !cached.Cached {
		t.Errorf("cached SSE result not flagged cached (err %v)", err)
	}
}

type sseEvent struct{ name, data string }

func parseSSE(t testing.TB, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	return out
}

// TestClientDisconnectCancelsPlan verifies that a dropped client cancels its
// in-flight run through the request context: the plan never completes, is
// not cached, and the session becomes usable again once the pipeline drains.
func TestClientDisconnectCancelsPlan(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A deliberately heavy plan (big space, many Monte-Carlo runs) so the
	// disconnect reliably lands mid-run.
	body := `{
		"name": "heavy",
		"flow": {"builtin": "tpcds-sales"},
		"scale": 4000,
		"config": {"policy": "exhaustive", "depth": 2, "maxAlternatives": 3000, "sim": {"runs": 256, "defaultRows": 4000}}
	}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sj sessionJSON
	if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Start the plan as SSE and drop the connection after the first byte.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/"+sj.ID+"/plan?stream=sse", nil)
	planResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := planResp.Body.Read(buf); err != nil {
		t.Fatalf("reading first SSE byte: %v", err)
	}
	planResp.Body.Close() // client walks away

	// The run must drain and release the session: a cheap follow-up plan
	// eventually succeeds (409 while the cancelled run is still draining).
	cheap := `{"config": {"policy": "greedy", "topK": 1, "depth": 1, "sim": {"runs": 2, "defaultRows": 50}}}`
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sj.ID+"/plan", "application/json", strings.NewReader(cheap))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("follow-up plan: %d %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled plan never released the session")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The cancelled heavy plan must not have been counted or cached.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serverStatsJSON
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.PlansComputed != 1 {
		t.Errorf("plansComputed = %d, want 1 (only the cheap follow-up)", stats.PlansComputed)
	}
}

// TestConcurrentSessionsStress drives many sessions in parallel through the
// full loop, SSE plans and deletes included; run under -race this is the
// concurrency acceptance test for the store, cache and session
// serialization.
func TestConcurrentSessionsStress(t *testing.T) {
	s := newTestServer(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers share one plan key (exercising the cache and
			// its singleflight), half use a distinct seed each.
			body := fastPlanBody(fmt.Sprintf("w%d", w))
			if w%2 == 1 {
				body = strings.Replace(body, `"scale": 100`, fmt.Sprintf(`"scale": %d`, 100+w), 1)
			}
			var sj sessionJSON
			rr := do(t, s, "POST", "/v1/sessions", body, &sj)
			if rr.Code != http.StatusCreated {
				t.Errorf("w%d create: %d", w, rr.Code)
				return
			}
			for i := 0; i < 2; i++ {
				rr := do(t, s, "POST", "/v1/sessions/"+sj.ID+"/plan", "", nil)
				if rr.Code != 200 && rr.Code != http.StatusConflict {
					t.Errorf("w%d plan: %d %s", w, rr.Code, rr.Body.String())
					return
				}
				if rr.Code == 200 {
					do(t, s, "POST", "/v1/sessions/"+sj.ID+"/select", `{"index": 0}`, nil)
				}
				do(t, s, "GET", "/v1/sessions/"+sj.ID, "", nil)
				do(t, s, "GET", "/v1/sessions", "", nil)
				do(t, s, "GET", "/v1/stats", "", nil)
			}
			// An SSE plan beside the other workers' plain traffic must still
			// end its stream with a result event.
			req := httptest.NewRequest("POST", "/v1/sessions/"+sj.ID+"/plan", nil)
			req.Header.Set("Accept", "text/event-stream")
			rr = httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != http.StatusConflict && !slices.ContainsFunc(parseSSE(t, rr.Body.String()),
				func(e sseEvent) bool { return e.name == "result" }) {
				t.Errorf("w%d sse plan: %d, no result event in %q", w, rr.Code, rr.Body.String())
			}
			// Odd workers delete their session while the others still run.
			if w%2 == 1 {
				if rr := do(t, s, "DELETE", "/v1/sessions/"+sj.ID, "", nil); rr.Code != http.StatusNoContent {
					t.Errorf("w%d delete: %d %s", w, rr.Code, rr.Body.String())
				}
				if rr := do(t, s, "GET", "/v1/sessions/"+sj.ID, "", nil); rr.Code != http.StatusNotFound {
					t.Errorf("w%d get after delete: %d, want 404", w, rr.Code)
				}
			}
		}(w)
	}
	wg.Wait()
	var stats serverStatsJSON
	do(t, s, "GET", "/v1/stats", "", &stats)
	if stats.Sessions != workers/2 {
		t.Errorf("sessions = %d, want %d", stats.Sessions, workers/2)
	}
	if stats.PlansComputed == 0 {
		t.Error("no plans computed")
	}
}

// TestPlanConflict asserts the per-session serialization: a second plan
// while one is in flight returns 409 instead of queueing or racing.
func TestPlanConflict(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{
		"flow": {"builtin": "tpcds-sales"},
		"scale": 2000,
		"config": {"policy": "exhaustive", "depth": 2, "maxAlternatives": 2000, "sim": {"runs": 128, "defaultRows": 2000}}
	}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sj sessionJSON
	if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/"+sj.ID+"/plan?stream=sse", nil)
	planResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer planResp.Body.Close()
	buf := make([]byte, 1)
	if _, err := planResp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	// While the heavy plan runs, a second plan and a select must 409.
	resp2, err := http.Post(ts.URL+"/v1/sessions/"+sj.ID+"/plan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("concurrent plan: %d, want 409", resp2.StatusCode)
	}
	resp3, err := http.Post(ts.URL+"/v1/sessions/"+sj.ID+"/select", "application/json", bytes.NewReader([]byte(`{"index":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("select during plan: %d, want 409", resp3.StatusCode)
	}
	// Deleting a session mid-plan would orphan the run: must 409 too.
	delReq, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+sj.ID, nil)
	resp4, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusConflict {
		t.Errorf("delete during plan: %d, want 409", resp4.StatusCode)
	}
}
