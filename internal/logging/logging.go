// Package logging resolves the serving stack's logging configuration
// into a *slog.Logger. Every serving component (coordinator, worker,
// store server, CLI) logs through slog; this package provides the
// shared plumbing: a JSON logger factory for the binaries, a discard
// logger, and level-name parsing for -log-level flags.
package logging

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// New resolves a component's Logger field: the logger itself, or a
// logger that discards when it is nil.
func New(logger *slog.Logger) *slog.Logger {
	if logger == nil {
		return Discard()
	}
	return logger
}

// JSON builds the binaries' structured logger: one JSON object per line
// to w, filtered at level. Every record carries its level and time; the
// serving components attach job/lease/trace IDs as attributes.
func JSON(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// Discard returns a logger that drops everything.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

// ParseLevel maps a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive; slog's "warn+2" offsets also work) to a
// slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(strings.TrimSpace(s))); err != nil {
		return 0, fmt.Errorf("unknown log level %q (valid: debug, info, warn, error)", s)
	}
	return l, nil
}

// discardHandler drops everything (slog.DiscardHandler predates this
// module's Go floor).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
