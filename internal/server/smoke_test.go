package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"poiesis/internal/obs"
)

// TestServedPlanMetricsAndTrace serves the handler on a loopback listener,
// creates a session and plans it over HTTP as an operator's first request
// would, then asserts what an operator relies on: the /metrics scrape parses
// under the strict exposition grammar and carries the core families a
// healthy service exports after one plan, and the plan's span tree from
// /v1/traces/{id} is well formed (every span carries the trace ID, parents
// resolve, exactly one root, at least four layers: root, plan, alternative,
// evaluation).
func TestServedPlanMetricsAndTrace(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v %s", path, resp.StatusCode, err, body)
		}
		return body
	}

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(fastPlanBody("smoke")))
	if err != nil {
		t.Fatal(err)
	}
	var sj sessionJSON
	err = json.NewDecoder(resp.Body).Decode(&sj)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %v", resp.StatusCode, err)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sj.ID+"/plan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get("X-Poiesis-Trace-ID")
	if resp.StatusCode != http.StatusOK || tid == "" {
		t.Fatalf("plan: %d, trace ID %q", resp.StatusCode, tid)
	}

	samples, err := obs.ParseText(strings.NewReader(string(get("/metrics"))))
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.Name] = true
	}
	for _, want := range []string{
		"poiesis_http_requests_total",
		"poiesis_http_request_duration_seconds_count",
		"poiesis_plans_computed_total",
		"poiesis_plan_cache_misses_total",
		"poiesis_backend_op_duration_seconds_count",
		"poiesis_sessions",
		"poiesis_build_info",
	} {
		if !seen[want] {
			t.Errorf("/metrics: %d samples, family %s missing", len(samples), want)
		}
	}

	var doc struct {
		ID    string `json:"id"`
		Spans []struct {
			TraceID  string `json:"traceId"`
			SpanID   string `json:"spanId"`
			ParentID string `json:"parentId"`
			Name     string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(get("/v1/traces/"+tid), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != tid || len(doc.Spans) == 0 {
		t.Fatalf("trace document id %q with %d spans, want %s", doc.ID, len(doc.Spans), tid)
	}
	parent := map[string]string{}
	for _, sp := range doc.Spans {
		if sp.TraceID != tid {
			t.Fatalf("span %s (%s) carries trace %s", sp.SpanID, sp.Name, sp.TraceID)
		}
		parent[sp.SpanID] = sp.ParentID
	}
	roots, depth := 0, 0
	for _, sp := range doc.Spans {
		if sp.ParentID == "" {
			roots++
		} else if _, ok := parent[sp.ParentID]; !ok {
			t.Fatalf("span %s (%s) has unresolved parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
		// The chain is bounded by the span count, so a parent cycle fails.
		d, id := 1, sp.SpanID
		for parent[id] != "" && d <= len(doc.Spans) {
			id, d = parent[id], d+1
		}
		if d > len(doc.Spans) {
			t.Fatalf("parent cycle through span %s", sp.SpanID)
		}
		depth = max(depth, d)
	}
	if roots != 1 || depth < 4 {
		t.Fatalf("%d root spans and depth %d over %d spans; want 1 root and depth >= 4", roots, depth, len(doc.Spans))
	}
	if !strings.Contains(string(get("/v1/traces/"+tid+"?format=chrome")), `"traceEvents"`) {
		t.Error("the Chrome rendering of the trace has no traceEvents")
	}
}
