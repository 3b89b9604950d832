package obs

import (
	"io"
	"log/slog"
)

// Logger is a nil-safe structured-logging facade over log/slog. A nil
// *Logger discards every record, so libraries can log unconditionally and
// callers opt in by supplying one. The facade exposes only the leveled
// message calls its callers make.
type Logger struct {
	s *slog.Logger
}

// NewLogger builds a Logger writing text or JSON records at the given level.
func NewLogger(w io.Writer, level slog.Level, json bool) *Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return &Logger{s: slog.New(h)}
}

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, args ...any) {
	if l != nil {
		l.s.Info(msg, args...)
	}
}

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, args ...any) {
	if l != nil {
		l.s.Warn(msg, args...)
	}
}

// Error logs at LevelError.
func (l *Logger) Error(msg string, args ...any) {
	if l != nil {
		l.s.Error(msg, args...)
	}
}
