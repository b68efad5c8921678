// Logging: every sink in the server tree — Config.Logf, the session
// store, the disk backend's Logf view, and the old bare log.Printf
// fallbacks — funnels through one obs.NewLogfLogger handler, so a warning
// from any layer renders the same "msg key=val" shape and request-scoped
// lines carry trace_id/span_id.
package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"

	"poiesis/internal/obs"
)

// defaultLogger is the process-wide fallback used when a component has no
// configured sink: structured rendering over the stdlib logger.
var defaultLogger = obs.NewLogfLogger(log.Printf)

// defaultLogf is the printf-compatible view of defaultLogger, for the
// backends' Logf fields which keep their printf signature.
func defaultLogf(format string, args ...any) {
	defaultLogger.Info(fmt.Sprintf(format, args...))
}

// withCtx returns lg with the context's request identity (trace_id,
// span_id) attached; lg unchanged when the context carries none.
func withCtx(lg *slog.Logger, ctx context.Context) *slog.Logger {
	attrs := obs.CtxAttrs(ctx)
	if len(attrs) == 0 {
		return lg
	}
	args := make([]any, len(attrs))
	for i, a := range attrs {
		args[i] = a
	}
	return lg.With(args...)
}

// logCtx is the server's structured logger scoped to one request.
func (s *Server) logCtx(ctx context.Context) *slog.Logger {
	return withCtx(s.logger, ctx)
}

// logfFor returns a printf-style view of the request-scoped logger, for
// call sites that still format their message inline. The rendered line
// carries trace_id/span_id like every other structured line.
func (s *Server) logfFor(ctx context.Context) func(format string, args ...any) {
	lg := s.logCtx(ctx)
	return func(format string, args ...any) {
		lg.Info(fmt.Sprintf(format, args...))
	}
}
