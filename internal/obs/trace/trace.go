// Package trace is the per-document forensics layer on top of the obs
// registry: where obs aggregates (how many fetches failed), trace follows
// individual documents (which page took which path through the crawler and
// the data flow). The paper's pitfalls are all per-document stories —
// pages that crash taggers (§4.2), boilerplate that survives filtering
// (§5), degenerate documents that stall workers — and PR 3's retries,
// breakers, and quarantine made the per-document paths branchy enough that
// aggregates alone cannot reconstruct what happened to one page.
//
// Everything here is deterministic per seed and free of wall-clock reads:
//
//   - trace and span IDs are derived from a seeded FNV-1a stream over
//     (seed, key, start sequence) — never math/rand or time.Now;
//   - timestamps are virtual-clock milliseconds supplied by the caller
//     (the crawler's discrete-event clock, the dataflow's plan-position
//     logical clock);
//   - the Recorder's retention (head/tail ring + bottom-k hash reservoir)
//     is a pure function of the trace set, so two same-seed runs export
//     byte-identical traces even when spans are emitted concurrently.
//
// A Context is a cheap value handle (recorder pointer + two IDs). The nil
// recorder and the zero Context are valid no-ops, so tracing-off call
// sites cost one pointer comparison.
package trace

import (
	"strconv"
)

// TraceID identifies one document's trace.
type TraceID uint64

// String renders the ID as fixed-width hex.
func (t TraceID) String() string { return fixedHex(uint64(t)) }

// SpanID identifies one span within a trace. Zero means "none" (the
// parent of a root span).
type SpanID uint64

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return fixedHex(uint64(s)) }

func fixedHex(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Attr is one key/value annotation on a span or event. Keys are
// compile-time constants in lower_snake form (the lintx tracename check
// enforces this); values may be dynamic.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Float builds a float attribute rendered with strconv 'g' precision -1,
// the same deterministic formatting obs snapshots use.
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Event is one point-in-time occurrence on a span, stamped in
// virtual-clock milliseconds.
type Event struct {
	Name  string `json:"name"`
	AtMs  int64  `json:"at_ms"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanData is one node of a trace's span tree. Spans are flat in storage
// (Parent links encode the tree); exporters reconstruct the hierarchy.
type SpanData struct {
	ID      SpanID  `json:"id"`
	Parent  SpanID  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartMs int64   `json:"start_ms"`
	EndMs   int64   `json:"end_ms"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Events  []Event `json:"events,omitempty"`
}

// Trace is one document's complete span tree plus retention metadata.
type Trace struct {
	ID TraceID `json:"id"`
	// Key is the document identity the trace was started with (the URL in
	// the crawler, the record key in the dataflow).
	Key string `json:"key"`
	// StartIndex is the trace's position in the recorder's start sequence;
	// it drives head/tail retention and the deterministic export order.
	StartIndex uint64 `json:"start_index"`
	StartMs    int64  `json:"start_ms"`
	EndMs      int64  `json:"end_ms"`
	// Done marks a finished trace (only finished traces are evictable).
	Done bool `json:"done,omitempty"`
	// Pinned marks a flight-recorder trace: an error-class event occurred
	// and the full span tree survives ring-buffer eviction.
	Pinned bool `json:"pinned,omitempty"`
	// ErrClasses lists the distinct error classes seen, sorted.
	ErrClasses []string    `json:"err_classes,omitempty"`
	Spans      []*SpanData `json:"spans"`
}

// span finds a span by ID, scanning from the newest: emitters nearly
// always address the span they opened last. A duplicated ID resolves to
// its last entry.
func (t *Trace) span(id SpanID) *SpanData {
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if sp := t.Spans[i]; sp.ID == id {
			return sp
		}
	}
	return nil
}

// addErrClass inserts a class into the sorted distinct list.
func (t *Trace) addErrClass(class string) {
	for i, c := range t.ErrClasses {
		if c == class {
			return
		}
		if c > class {
			t.ErrClasses = append(t.ErrClasses, "")
			copy(t.ErrClasses[i+1:], t.ErrClasses[i:])
			t.ErrClasses[i] = class
			return
		}
	}
	t.ErrClasses = append(t.ErrClasses, class)
}

// HasErrClass reports whether the trace recorded the given error class.
func (t *Trace) HasErrClass(class string) bool {
	for _, c := range t.ErrClasses {
		if c == class {
			return true
		}
	}
	return false
}

// nonZero keeps derived IDs out of the zero value (reserved for "none").
func nonZero(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// TraceName composes a dotted trace name from parts — the one sanctioned
// builder for computed span/event names (mirrors dataflow.MetricName for
// metric keys; the lintx tracename check allows it and nothing else).
// Parts are joined with dots; the caller owns keeping parts lower-case.
func TraceName(parts ...string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out
}
