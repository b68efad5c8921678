package server

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"poiesis/internal/cluster"
	"poiesis/internal/obs"
)

// traceDoc mirrors the GET /v1/traces/{id} body for assertions.
type traceDoc struct {
	ID       string         `json:"id"`
	Root     string         `json:"root"`
	Services []string       `json:"services"`
	Spans    []obs.SpanData `json:"spans"`
}

func fetchTrace(t *testing.T, url, id string) (traceDoc, int) {
	t.Helper()
	code, b := httpDo(t, "GET", url+"/v1/traces/"+id, "")
	var doc traceDoc
	if code == http.StatusOK {
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("trace document from %s: %v\n%s", url, err, b)
		}
	}
	return doc, code
}

// TestClusterForwardedPlanSingleTrace is the acceptance property of the
// tracing tentpole: a plan request through a non-owning replica yields ONE
// trace, retrievable from any replica, whose tree holds both replicas'
// fragments — the proxy's http root with the cluster.forward hop under it,
// and the owner's http fragment grafted under the hop, with the planner,
// per-alternative, and simulator children inside.
func TestClusterForwardedPlanSingleTrace(t *testing.T) {
	servers, urls := startReplicas(t, 3, nil)
	id := clusterCreateSession(t, urls[0], "traced")
	if owner := servers[0].cluster.Owner(cluster.SessionKey(id)); owner != "n0" {
		// startReplicas draws session IDs until the creator owns them; the
		// ownership check in TestClusterForwardedSessionAccess guards this.
		t.Skipf("session unexpectedly owned by %s", owner)
	}

	// Plan through replica 1: not the owner, so the request forwards to n0.
	req, err := http.NewRequest("POST", urls[1]+"/v1/sessions/"+id+"/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded plan: %d", resp.StatusCode)
	}
	tid := resp.Header.Get(obs.TraceIDHeader)
	if !obs.ValidTraceID(tid) {
		t.Fatalf("forwarded plan response carries no valid trace ID: %q", tid)
	}

	// The merged tree must be retrievable from EVERY replica: the proxy and
	// the owner each hold a fragment, n2 holds nothing and assembles the
	// whole trace from its peers.
	for i, url := range urls {
		doc, code := fetchForwardedTrace(t, url, tid)
		if code != http.StatusOK {
			t.Fatalf("replica %d: GET /v1/traces/%s -> %d", i, tid, code)
		}
		if doc.ID != tid {
			t.Fatalf("replica %d returned trace %s, want %s", i, doc.ID, tid)
		}
		assertForwardedTraceShape(t, i, doc)
	}
}

// fetchForwardedTrace reads a forwarded request's trace once both the
// proxy's (n1) and the owner's (n0) fragments are in it. Each replica
// publishes its fragment when its local root span ends, in the deferred End
// of Server.ServeHTTP, and cluster.Forward flushes every chunk, so the client
// can hold the whole response before either fragment is published. The poll
// is bounded: past the deadline the last read is returned as is and the
// shape assertions report what is missing.
func fetchForwardedTrace(t *testing.T, url, id string) (traceDoc, int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		doc, code := fetchTrace(t, url, id)
		complete := code == http.StatusOK &&
			slices.Contains(doc.Services, "n0") && slices.Contains(doc.Services, "n1")
		if complete || time.Now().After(deadline) {
			return doc, code
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertForwardedTraceShape(t *testing.T, replica int, doc traceDoc) {
	t.Helper()
	services := map[string]bool{}
	for _, s := range doc.Services {
		services[s] = true
	}
	if !services["n0"] || !services["n1"] {
		t.Errorf("replica %d: merged trace spans services %v, want both n0 and n1", replica, doc.Services)
	}

	byID := map[string]obs.SpanData{}
	for _, sp := range doc.Spans {
		byID[sp.SpanID] = sp
	}
	var roots, forward, ownerHTTP []obs.SpanData
	names := map[string]int{}
	for _, sp := range doc.Spans {
		names[sp.Name]++
		if _, ok := byID[sp.ParentID]; !ok {
			roots = append(roots, sp)
		}
		if sp.Name == "cluster.forward" {
			forward = append(forward, sp)
		}
		if sp.Service == "n0" && strings.HasPrefix(sp.Name, "http ") {
			ownerHTTP = append(ownerHTTP, sp)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("replica %d: %d root spans, want 1 (spans %v)", replica, len(roots), names)
	}
	if roots[0].Service != "n1" || !strings.HasPrefix(roots[0].Name, "http ") {
		t.Errorf("replica %d: root is %q on %s, want the proxy's http span on n1",
			replica, roots[0].Name, roots[0].Service)
	}
	if len(forward) != 1 {
		t.Fatalf("replica %d: %d cluster.forward spans, want 1", replica, len(forward))
	}
	if forward[0].Service != "n1" || forward[0].ParentID != roots[0].SpanID {
		t.Errorf("replica %d: forward hop on %s under %s, want under the n1 root",
			replica, forward[0].Service, forward[0].ParentID)
	}
	if len(ownerHTTP) != 1 {
		t.Fatalf("replica %d: %d owner http fragments, want 1 (spans %v)", replica, len(ownerHTTP), names)
	}
	if ownerHTTP[0].ParentID != forward[0].SpanID {
		t.Errorf("replica %d: owner fragment parents %s, want the forward hop %s",
			replica, ownerHTTP[0].ParentID, forward[0].SpanID)
	}
	// The owner's fragment must hold the instrumented planner interior:
	// apply batches, per-alternative evaluations, and their simulator runs.
	for _, want := range []string{"planner.plan", "planner.apply", "planner.alternative", "sim.evaluate", "planner.baseline"} {
		if names[want] == 0 {
			t.Errorf("replica %d: trace lacks %q spans (have %v)", replica, want, names)
		}
	}
	// Depth: root http -> forward -> owner http -> planner.plan -> ... is at
	// least four layers before the planner interior even counts.
	depth := 0
	for _, sp := range doc.Spans {
		d, cur := 1, sp
		for {
			p, ok := byID[cur.ParentID]
			if !ok || d > len(doc.Spans) {
				break
			}
			cur, d = p, d+1
		}
		if d > depth {
			depth = d
		}
	}
	if depth < 4 {
		t.Errorf("replica %d: span tree depth %d, want >= 4", replica, depth)
	}
}

// TestClusterTracingDisabled: with sampling off (TraceSample < 0) the
// forwarded-plan path must still work, respond without a trace header, 404
// the trace endpoints, and start spans without allocating.
func TestClusterTracingDisabled(t *testing.T) {
	_, urls := startReplicas(t, 3, func(i int, cfg *Config) { cfg.TraceSample = -1 })
	id := clusterCreateSession(t, urls[0], "untraced")

	req, err := http.NewRequest("POST", urls[1]+"/v1/sessions/"+id+"/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded plan with tracing disabled: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceIDHeader); got != "" {
		t.Errorf("tracing disabled but response carries trace ID %q", got)
	}
	if code, _ := httpDo(t, "GET", urls[0]+"/v1/traces", ""); code != http.StatusNotFound {
		t.Errorf("GET /v1/traces with tracing disabled: %d, want 404", code)
	}

	// The disabled hot path must not touch the collector at all: starting a
	// child span on an untraced context is a no-op without allocations.
	ctx := context.Background()
	var tr *obs.Tracer
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := tr.StartRequest(ctx, "", "http")
		_, sp2 := obs.StartSpan(c, "planner.plan")
		sp2.SetAttr("k", "v")
		sp2.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per request on the span path, want 0", allocs)
	}
}
