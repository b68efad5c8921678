package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is one completed span as stored and exported. Times are wall
// clock; the tree structure is ParentID links within one TraceID.
type SpanData struct {
	TraceID  string        `json:"traceId"`
	SpanID   string        `json:"spanId"`
	ParentID string        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Service  string        `json:"service,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// Trace is one collected trace fragment (or a cluster-merged tree): every
// completed span sharing a trace ID on this replica.
type Trace struct {
	ID       string        `json:"id"`
	Root     string        `json:"root"`
	Service  string        `json:"service"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Errored  bool          `json:"errored"`
	Dropped  int           `json:"droppedSpans,omitempty"`
	Spans    []SpanData    `json:"spans"`
}

// TracerStats counts collector activity for /v1/stats.
type TracerStats struct {
	Roots        int64 `json:"roots"`
	Published    int64 `json:"published"`
	Discarded    int64 `json:"discarded"`
	DroppedSpans int64 `json:"droppedSpans"`
	Buffered     int   `json:"buffered"`
}

// traceBuf accumulates the completed spans of one local trace fragment,
// at most max of them. Spans are kept in the order they end: the first
// max-tailSpans in spans, and after that the last tailSpans to end in the
// tail ring, so a fragment over the cap still keeps the spans that end last
// (a plan's planner.plan span with its totals, and the local root) and
// drops from the middle. It is sealed when the fragment's local root ends;
// spans arriving after the seal (stray goroutines) are dropped and counted
// rather than leaking into a published trace.
type traceBuf struct {
	max int

	mu      sync.Mutex
	spans   []SpanData
	tail    []SpanData // ring of the latest spans once spans is full
	next    int        // tail slot the next span overwrites once tail is full
	dropped int
	errored bool
	sealed  bool
}

// tailSpans is how many of the last spans to end a fragment over its cap
// keeps: room for the plan span, the root and the handler spans that end
// between them.
const tailSpans = 16

func (b *traceBuf) add(sd SpanData) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed {
		b.dropped++
		return
	}
	if sd.Err != "" {
		b.errored = true
	}
	tail := min(tailSpans, b.max/2)
	switch {
	case len(b.spans) < b.max-tail:
		b.spans = append(b.spans, sd)
	case len(b.tail) < tail:
		b.tail = append(b.tail, sd)
	default:
		b.tail[b.next] = sd
		b.next = (b.next + 1) % tail
		b.dropped++
	}
}

// take returns the kept spans in the order they ended and empties b.
func (b *traceBuf) take() []SpanData {
	spans := append(b.spans, b.tail[b.next:]...)
	spans = append(spans, b.tail[:b.next]...)
	b.spans, b.tail, b.next = nil, nil, 0
	return spans
}

func (b *traceBuf) noteError() {
	b.mu.Lock()
	b.errored = true
	b.mu.Unlock()
}

// Tracer is the in-process collector: it mints IDs, applies head sampling
// at local roots, and keeps the most recent published traces in a bounded
// ring. A nil *Tracer is a valid "tracing disabled" tracer: StartRequest
// and StartDetached return the context unchanged and a nil span, and the
// request path allocates nothing.
type Tracer struct {
	service  string
	every    int64 // publish 1 in N root traces; <=1 publishes all
	capacity int   // ring size
	maxSpans int   // per-fragment span cap

	roots atomic.Int64
	idc   atomic.Uint64

	published    atomic.Int64
	discarded    atomic.Int64
	droppedSpans atomic.Int64

	mu   sync.Mutex
	ring []string // trace IDs in publication order; evicts oldest
	byID map[string]*Trace
}

const (
	defaultTraceRing = 128
	defaultMaxSpans  = 512
)

// NewTracer builds a collector for one replica. service labels every
// exported span with the replica's identity (cluster self ID or "poiesis").
// sampleEvery publishes one in N root traces (<=1 publishes every trace);
// the first root and any errored fragment are always published. bufferCap
// bounds the ring of retained traces (<=0 uses 128).
func NewTracer(service string, sampleEvery, bufferCap int) *Tracer {
	if service == "" {
		service = "poiesis"
	}
	if bufferCap <= 0 {
		bufferCap = defaultTraceRing
	}
	t := &Tracer{
		service:  service,
		every:    int64(sampleEvery),
		capacity: bufferCap,
		maxSpans: defaultMaxSpans,
		byID:     make(map[string]*Trace),
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idc.Store(binary.BigEndian.Uint64(seed[:]))
	}
	return t
}

// Service returns the replica identity stamped on exported spans.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

func (t *Tracer) nextSpanID() SpanID {
	return spanIDFrom(splitmix64(t.idc.Add(1)))
}

func (t *Tracer) newTraceID() TraceID {
	a := splitmix64(t.idc.Add(1))
	b := splitmix64(t.idc.Add(1))
	return traceIDFrom(a, b)
}

// sampleRoot decides head sampling for a new root trace. The first root is
// always sampled so a fresh server's smoke request is inspectable at any
// sample rate.
func (t *Tracer) sampleRoot() bool {
	n := t.roots.Add(1)
	return t.every <= 1 || n%t.every == 1
}

func (t *Tracer) startLocalRoot(ctx context.Context, tid TraceID, parent SpanID, name string, sampled bool) (context.Context, *Span) {
	sp := &Span{
		tr:      t,
		buf:     &traceBuf{max: t.maxSpans},
		traceID: tid,
		tidStr:  tid.String(),
		spanID:  t.nextSpanID(),
		parent:  parent,
		name:    name,
		//lint:ignore nodeterminism span start times are wall-clock by definition, never fed to oracles
		start:     time.Now(),
		sampled:   sampled,
		localRoot: true,
		// Root spans accumulate the middleware's and the handler's
		// annotations; sizing for them up front keeps append growth off
		// the per-request path.
		attrs: make([]Attr, 0, 10),
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartRequest roots this process's fragment of a trace. When traceparent
// carries a valid inbound context (a cluster forward or an instrumented
// client), the fragment continues that trace — same trace ID, remote
// parent span, and the caller's sampling decision — so the owner's spans
// graft under the proxy's forward span. Otherwise a fresh root trace is
// started and head sampling applies. Returns (ctx, nil) on a nil tracer.
func (t *Tracer) StartRequest(ctx context.Context, traceparent, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if tid, psid, sampled, ok := ParseTraceParent(traceparent); ok {
		return t.startLocalRoot(ctx, tid, psid, name, sampled)
	}
	return t.startLocalRoot(ctx, t.newTraceID(), SpanID{}, name, t.sampleRoot())
}

// StartDetached roots a background trace with no inbound parent (eviction
// queue work, TTL sweeps). Detached traces bypass head sampling only via
// the error override, like any other root.
func (t *Tracer) StartDetached(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startLocalRoot(ctx, t.newTraceID(), SpanID{}, name, t.sampleRoot())
}

// seal closes a fragment buffer and publishes it to the ring when the
// trace was sampled or the fragment errored (the always-sample-on-error
// override); otherwise the fragment is discarded.
func (t *Tracer) seal(b *traceBuf, tid TraceID, sampled bool) {
	b.mu.Lock()
	b.sealed = true
	spans := b.take()
	dropped := b.dropped
	errored := b.errored
	b.mu.Unlock()

	t.droppedSpans.Add(int64(dropped))
	if !sampled && !errored {
		t.discarded.Add(1)
		return
	}
	if len(spans) == 0 {
		return
	}
	t.published.Add(1)
	t.publish(tid.String(), spans, dropped, errored)
}

// publish files a sealed fragment into the ring, merging with an existing
// entry for the same trace ID: a request that hops through this replica
// twice (proxy then peer-cache call) lands as one trace.
func (t *Tracer) publish(id string, spans []SpanData, dropped int, errored bool) {
	for i := range spans {
		if spans[i].Service == "" {
			spans[i].Service = t.service
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr := t.byID[id]; tr != nil {
		tr.Spans = append(tr.Spans, spans...)
		tr.Dropped += dropped
		tr.Errored = tr.Errored || errored
		summarize(tr)
		return
	}
	tr := &Trace{ID: id, Service: t.service, Errored: errored, Dropped: dropped, Spans: spans}
	summarize(tr)
	t.byID[id] = tr
	t.ring = append(t.ring, id)
	for len(t.ring) > t.capacity {
		delete(t.byID, t.ring[0])
		t.ring = t.ring[1:]
	}
}

// summarize recomputes the trace's root name, start, and duration from its
// spans.
func summarize(tr *Trace) {
	end := time.Time{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if e := sp.Start.Add(sp.Duration); e.After(end) {
			end = e
		}
	}
	if root := rootSpan(tr.Spans); root != nil {
		tr.Root = root.Name
		tr.Start = root.Start
		tr.Duration = end.Sub(root.Start)
	}
}

// rootSpan returns the trace's root: of the spans with no in-trace parent,
// the one that starts earliest. Nil for an empty trace.
func rootSpan(spans []SpanData) *SpanData {
	ids := make(map[string]bool, len(spans))
	for i := range spans {
		ids[spans[i].SpanID] = true
	}
	var root *SpanData
	for i := range spans {
		sp := &spans[i]
		if sp.ParentID != "" && ids[sp.ParentID] {
			continue
		}
		if root == nil || sp.Start.Before(root.Start) {
			root = sp
		}
	}
	return root
}

// Traces returns summaries of the retained traces, newest first. The span
// slices are shared with the ring; callers must not mutate them.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		tr := t.byID[t.ring[i]]
		if tr == nil {
			continue
		}
		cp := *tr
		cp.Spans = nil
		out = append(out, cp)
	}
	return out
}

// TracesWhere returns summaries of the retained traces whose root span
// carries the attribute key=value, newest first.
func (t *Tracer) TracesWhere(key, value string) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := []Trace{}
	for i := len(t.ring) - 1; i >= 0; i-- {
		tr := t.byID[t.ring[i]]
		if tr == nil {
			continue
		}
		root := rootSpan(tr.Spans)
		if root == nil || !slices.Contains(root.Attrs, Attr{Key: key, Value: value}) {
			continue
		}
		cp := *tr
		cp.Spans = nil
		out = append(out, cp)
	}
	return out
}

// Trace returns a copy of one retained trace with its spans sorted by
// start time, or false when the ID is unknown (not collected, sampled
// out, or already evicted).
func (t *Tracer) Trace(id string) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	tr := t.byID[id]
	var cp Trace
	if tr != nil {
		cp = *tr
		cp.Spans = append([]SpanData(nil), tr.Spans...)
	}
	t.mu.Unlock()
	if tr == nil {
		return Trace{}, false
	}
	sort.SliceStable(cp.Spans, func(i, j int) bool { return cp.Spans[i].Start.Before(cp.Spans[j].Start) })
	return cp, true
}

// MergeTraces combines trace fragments collected on different replicas into
// one document: spans are deduplicated by span ID, sorted by start time, and
// the root/start/duration summary is recomputed over the union. The first
// fragment's ID and service label the merged trace.
func MergeTraces(frags ...Trace) Trace {
	var out Trace
	seen := make(map[string]bool)
	for i, frag := range frags {
		if i == 0 {
			out.ID = frag.ID
			out.Service = frag.Service
		}
		out.Errored = out.Errored || frag.Errored
		out.Dropped += frag.Dropped
		for _, sp := range frag.Spans {
			if seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			out.Spans = append(out.Spans, sp)
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start.Before(out.Spans[j].Start) })
	summarize(&out)
	return out
}

// Stats snapshots collector counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	buffered := len(t.ring)
	t.mu.Unlock()
	return TracerStats{
		Roots:        t.roots.Load(),
		Published:    t.published.Load(),
		Discarded:    t.discarded.Load(),
		DroppedSpans: t.droppedSpans.Load(),
		Buffered:     buffered,
	}
}
