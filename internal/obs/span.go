package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are plain strings so
// spans serialize without reflection; use String/Int to build them.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	if v {
		return Attr{Key: k, Value: "true"}
	}
	return Attr{Key: k, Value: "false"}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Span is one node of a trace tree. The zero value is not usable; spans
// come from Tracer.StartRequest/StartDetached or StartSpan. All methods
// are safe on a nil receiver — instrumented code never needs to check
// whether tracing is enabled before annotating.
type Span struct {
	tr      *Tracer
	buf     *traceBuf
	traceID TraceID
	spanID  SpanID
	parent  SpanID
	name    string
	// tidStr is the trace ID pre-rendered as hex: it is needed several
	// times per request (response header, exemplar, every SpanData), so
	// the root renders it once and children inherit it.
	tidStr  string
	start   time.Time
	sampled bool
	// localRoot marks the span whose End seals this process's fragment of
	// the trace and hands it to the collector.
	localRoot bool

	mu     sync.Mutex
	attrs  []Attr
	errMsg string
	ended  bool
}

// TraceID returns the trace this span belongs to, or "" on a nil span.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	if s.tidStr != "" {
		return s.tidStr
	}
	return s.traceID.String()
}

// TraceParent renders the traceparent header value that makes a remote
// callee's spans children of this span. Empty on a nil span.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.traceID, s.spanID, s.sampled)
}

// SpanIDString returns this span's ID, or "" on a nil span.
func (s *Span) SpanIDString() string {
	if s == nil {
		return ""
	}
	return s.spanID.String()
}

// SetName renames the span (e.g. once the route pattern is known).
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.name = name
	s.mu.Unlock()
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, itoa(v))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(k string, v bool) {
	if s == nil {
		return
	}
	if v {
		s.SetAttr(k, "true")
	} else {
		s.SetAttr(k, "false")
	}
}

// Fail marks the span (and therefore the whole trace fragment) as errored.
// An errored fragment is always published, overriding head sampling, so
// failures are never lost to the sample rate.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.FailMsg(err.Error())
}

// FailMsg is Fail for callers that have a message but no error value.
func (s *Span) FailMsg(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	if s.errMsg == "" {
		s.errMsg = msg
	}
	s.mu.Unlock()
	s.buf.noteError()
}

// End completes the span and files it into the trace buffer. Ending the
// local root seals the fragment and publishes it to the collector (subject
// to sampling and the error override). End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	//lint:ignore nodeterminism span durations are wall-clock by definition, never fed to oracles
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:  s.TraceIDString(),
		SpanID:   s.spanID.String(),
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Attrs:    s.attrs,
		Err:      s.errMsg,
	}
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	s.mu.Unlock()
	s.buf.add(sd)
	if s.localRoot {
		s.tr.seal(s.buf, s.traceID, s.sampled)
	}
}

// Record files an already-measured operation as a completed child span of
// s and returns its ID so further children can hang off it via
// RecordChildOf. This is the zero-goroutine-overhead path for code that
// already tracks start/duration itself (stage clocks, backend timings).
func (s *Span) Record(name string, start time.Time, d time.Duration, attrs ...Attr) SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.RecordChildOf(s.spanID, name, start, d, attrs...)
}

// RecordChildOf files a completed span under an arbitrary parent span ID
// within the same trace.
func (s *Span) RecordChildOf(parent SpanID, name string, start time.Time, d time.Duration, attrs ...Attr) SpanID {
	if s == nil {
		return SpanID{}
	}
	id := s.tr.nextSpanID()
	s.buf.add(SpanData{
		TraceID:  s.TraceIDString(),
		SpanID:   id.String(),
		ParentID: parent.String(),
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	})
	return id
}

type spanKey struct{}

// SpanFrom returns the span attached to the context, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Traced reports whether the context carries an active span. Hot paths
// use it to skip attribute construction entirely when tracing is off.
func Traced(ctx context.Context) bool { return SpanFrom(ctx) != nil }

// StartSpan opens a child span under the context's current span. When the
// context carries no span (tracing disabled, or an uninstrumented entry
// point) it returns the context unchanged and a nil span: the whole call
// tree below stays allocation-free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		tr:      parent.tr,
		buf:     parent.buf,
		traceID: parent.traceID,
		tidStr:  parent.tidStr,
		spanID:  parent.tr.nextSpanID(),
		parent:  parent.spanID,
		name:    name,
		//lint:ignore nodeterminism span start times are wall-clock by definition, never fed to oracles
		start:   time.Now(),
		sampled: parent.sampled,
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// RecordSpan files an already-measured operation as a completed child of
// the context's current span; a no-op without one. Callers that build
// attrs should guard with Traced(ctx) to keep the untraced path free.
func RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if sp := SpanFrom(ctx); sp != nil {
		sp.Record(name, start, d, attrs...)
	}
}
