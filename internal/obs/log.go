package obs

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Shared structured-logging setup. Every binary registers the same two
// flags (-log-level, -log-format) through LogFlags and builds its logger
// with Logger, so operators get one logging contract across the whole
// tool set:
//
//	opts := obs.LogFlags(flag.CommandLine)
//	flag.Parse()
//	log := opts.Logger("dnasimd")

// LogOptions holds the flag-configurable logging knobs.
type LogOptions struct {
	// Level is the minimum level: debug, info, warn, error.
	Level string
	// Format is the handler: "text" (human) or "json" (machine).
	Format string
	// Output overrides the destination (default os.Stderr).
	Output io.Writer
}

// LogFlags registers -log-level and -log-format on fs (typically
// flag.CommandLine) and returns the options they populate.
func LogFlags(fs *flag.FlagSet) *LogOptions {
	o := &LogOptions{}
	fs.StringVar(&o.Level, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&o.Format, "log-format", "text", "log format: text or json")
	return o
}

// slogLevel maps the flag string to a slog.Level (unknown → info).
func slogLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

// Logger builds the component's *slog.Logger per the options. Every
// record carries a "component" attribute so merged multi-process logs
// stay attributable.
func (o *LogOptions) Logger(component string) *slog.Logger {
	w := o.Output
	if w == nil {
		w = os.Stderr
	}
	hopts := &slog.HandlerOptions{Level: slogLevel(o.Level)}
	var h slog.Handler
	if strings.EqualFold(o.Format, "json") {
		h = slog.NewJSONHandler(w, hopts)
	} else {
		h = slog.NewTextHandler(w, hopts)
	}
	return slog.New(h).With("component", component)
}

// discardHandler drops every record; Enabled is false for all levels so
// argument evaluation is skipped too.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Discard returns a logger that drops everything — the nil-object default
// for components whose caller configured no logging.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }
