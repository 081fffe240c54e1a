package telemetry

import (
	"context"
	"log/slog"
	"os"
	"sync/atomic"
)

// Structured logging: one leveled JSON logger per process (stdlib
// log/slog), trace-correlated — Log(ctx) stamps every record produced
// under a traced request with its trace and span IDs, so a log line, a
// /debug/traces tree and a loadgen op record can be joined on one key.
// This replaces the ad-hoc fmt.Fprintf(os.Stderr, ...) reporting in the
// CLIs and the HTTP layer.

var (
	logLevel  slog.LevelVar // defaults to Info
	logTarget atomic.Pointer[slog.Logger]
)

func init() {
	logTarget.Store(slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: &logLevel})))
}

// Logger returns the process logger.
func Logger() *slog.Logger { return logTarget.Load() }

// Log returns the process logger, annotated with the trace and span IDs of
// ctx's innermost span when there is one.
func Log(ctx context.Context) *slog.Logger {
	l := Logger()
	if s := SpanFromContext(ctx); s != nil {
		return l.With("trace", s.Trace().String(), "span", s.ID().String())
	}
	if t, ok := TraceFromContext(ctx); ok {
		return l.With("trace", t.String())
	}
	return l
}

// SetLogLevel adjusts the process log level (the handler is leveled; no
// logger is rebuilt).
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// ParseLogLevel maps the conventional flag spellings to slog levels,
// defaulting to Info for unknown input.
func ParseLogLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
