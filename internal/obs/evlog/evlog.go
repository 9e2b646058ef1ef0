// Package evlog is the third observability pillar: a deterministic
// structured event log beside the obs metric registry (PR 1) and the
// trace recorder (PR 4). Where obs aggregates and trace follows single
// documents, evlog answers "what did the system decide, in order, and
// why" — the narrative the paper's authors had to reconstruct by hand
// from aggregate numbers after their 1 TB run went sideways (PAPER.md
// §5-6).
//
// Everything is deterministic per seed and free of wall-clock reads,
// matching the trace pillar's discipline:
//
//   - timestamps are virtual-clock milliseconds supplied by the caller
//     (the crawler's discrete-event clock, the dataflow's plan-position
//     logical clock);
//   - retention is a pure function of the emitted record multiset
//     (bottom-k by seeded FNV priority, evict-min tails), so two
//     same-seed runs export byte-identical logs even when records are
//     emitted concurrently;
//   - exporters render a canonical record order derived from record
//     content, never from arrival order.
//
// The log records what happens to the run, a host, a shard or an
// operator; what happens to one URL or one record is its trace's alone,
// so no record carries a URL or a trace ID. Attrs reuse trace.Attr, so
// the attribute vocabulary (and the lintx key-hygiene grammar) is shared
// across pillars.
package evlog

import (
	"fmt"
	"slices"

	"webtextie/internal/obs/trace"
)

// Level is a record severity. The zero value is Debug.
type Level int8

// Severity levels, in increasing order.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

// String returns the lower-case level name.
func (l Level) String() string {
	if l < Debug || l > Error {
		return fmt.Sprintf("level(%d)", int8(l))
	}
	return levelNames[l]
}

// ParseLevel maps a lower-case level name back to its Level.
func ParseLevel(s string) (Level, bool) {
	for i, n := range levelNames {
		if n == s {
			return Level(i), true
		}
	}
	return Debug, false
}

// MarshalJSON renders the level as its quoted name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON parses a quoted level name.
func (l *Level) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("evlog: bad level %s", data)
	}
	v, ok := ParseLevel(string(data[1 : len(data)-1]))
	if !ok {
		return fmt.Errorf("evlog: unknown level %s", data)
	}
	*l = v
	return nil
}

// Record is one structured log event. Records are plain values; the
// canonical logfmt rendering (see line) doubles as the record identity
// that retention priorities and the export order derive from.
type Record struct {
	AtMs      int64        `json:"at_ms"`
	Level     Level        `json:"level"`
	Component string       `json:"component"`
	Msg       string       `json:"msg"`
	Attrs     []trace.Attr `json:"attrs,omitempty"`
}

// Logger emits records for one component into a Sink. Loggers are cheap
// values; the zero Logger (and any logger from a nil sink) is a valid
// no-op, which is the entire logging-off fast path.
type Logger struct {
	s         *Sink
	component string
}

// Debug emits a debug-level record.
func (l Logger) Debug(msg string, atMs int64, attrs ...trace.Attr) {
	l.emit(Debug, msg, atMs, attrs)
}

// Info emits an info-level record.
func (l Logger) Info(msg string, atMs int64, attrs ...trace.Attr) {
	l.emit(Info, msg, atMs, attrs)
}

// Warn emits a warn-level record.
func (l Logger) Warn(msg string, atMs int64, attrs ...trace.Attr) {
	l.emit(Warn, msg, atMs, attrs)
}

// Error emits an error-level record.
func (l Logger) Error(msg string, atMs int64, attrs ...trace.Attr) {
	l.emit(Error, msg, atMs, attrs)
}

// emit hands the record, with its own copy of the attrs, to the sink. A
// logger with no sink returns before the copy, so a call site's variadic
// slice stays on its stack.
func (l Logger) emit(lv Level, msg string, atMs int64, attrs []trace.Attr) {
	if l.s == nil {
		return
	}
	l.s.emit(Record{
		AtMs:      atMs,
		Level:     lv,
		Component: l.component,
		Msg:       msg,
		Attrs:     slices.Clone(attrs),
	})
}
