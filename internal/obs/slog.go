package obs

import (
	"context"
	"log/slog"
	"strconv"
	"strings"
)

// logfHandler adapts a printf-style sink (server Config.Logf, the stdlib
// log package, a test recorder) into a slog.Handler. Records render as one
// "msg key=val ..." line, so every logging style in the tree — server
// config logf, backend Logf views, and the old log.Printf fallbacks —
// funnels through one structured path and can carry trace_id/span_id.
type logfHandler struct {
	logf   func(format string, args ...any)
	prefix string // pre-rendered " key=val" pairs from WithAttrs
	group  string // dotted group prefix from WithGroup
}

// NewLogfLogger wraps a printf-style sink in a structured logger. A nil
// sink discards everything (Enabled reports false, so record construction
// is skipped).
func NewLogfLogger(logf func(format string, args ...any)) *slog.Logger {
	return slog.New(&logfHandler{logf: logf})
}

func (h *logfHandler) Enabled(_ context.Context, level slog.Level) bool {
	return h.logf != nil && level >= slog.LevelInfo
}

func (h *logfHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.Grow(len(r.Message) + len(h.prefix) + 32)
	if r.Level >= slog.LevelWarn {
		b.WriteString(r.Level.String())
		b.WriteByte(' ')
	}
	b.WriteString(r.Message)
	b.WriteString(h.prefix)
	r.Attrs(func(a slog.Attr) bool {
		appendAttr(&b, h.group, a)
		return true
	})
	h.logf("%s", b.String())
	return nil
}

func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	var b strings.Builder
	b.WriteString(h.prefix)
	for _, a := range attrs {
		appendAttr(&b, h.group, a)
	}
	return &logfHandler{logf: h.logf, prefix: b.String(), group: h.group}
}

func (h *logfHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &logfHandler{logf: h.logf, prefix: h.prefix, group: h.group + name + "."}
}

func appendAttr(b *strings.Builder, group string, a slog.Attr) {
	if a.Value.Kind() == slog.KindGroup {
		sub := group
		if a.Key != "" {
			sub += a.Key + "."
		}
		for _, g := range a.Value.Group() {
			appendAttr(b, sub, g)
		}
		return
	}
	if a.Key == "" {
		return
	}
	b.WriteByte(' ')
	b.WriteString(group)
	b.WriteString(a.Key)
	b.WriteByte('=')
	v := a.Value.String()
	if strings.ContainsAny(v, " \t\n\"") {
		b.WriteString(strconv.Quote(v))
	} else {
		b.WriteString(v)
	}
}

// CtxAttrs returns the request-scoped identity attrs (trace_id, span_id)
// found on the context, for attaching to a logger handling that request;
// nil when the context carries no span.
func CtxAttrs(ctx context.Context) []slog.Attr {
	sp := SpanFrom(ctx)
	if sp == nil {
		return nil
	}
	return []slog.Attr{
		slog.String("trace_id", sp.TraceIDString()),
		slog.String("span_id", sp.SpanIDString()),
	}
}
