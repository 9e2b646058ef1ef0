package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Exporters render a Snapshot — never the live recorder — so the export
// sees one consistent, canonically ordered view. Text is the one
// rendering: the -trace-out file and the debug server's /traces body.

func fmtAttrs(b *strings.Builder, attrs []Attr) {
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
}

// Text renders the snapshot deterministically: traces in StartIndex order,
// each span tree indented with parents before children (siblings in
// canonical span order), events inline under their span:
//
//	trace 9a3f... key=http://h12/p3 [0-61200ms] spans=4 err=[retry_exhausted] pinned
//	  span crawler.url [0-61200ms]
//	    @0ms frontier.inject depth=0 host=h12
//	    span crawler.fetch.attempt [200-2900ms] attempt=0
//	      @2900ms error class=retry_exhausted
func (s *Snapshot) Text() string {
	var b strings.Builder
	for _, t := range s.Traces {
		fmt.Fprintf(&b, "trace %s key=%s [%d-%dms] spans=%d", t.ID, t.Key, t.StartMs, t.EndMs, len(t.Spans))
		if len(t.ErrClasses) > 0 {
			fmt.Fprintf(&b, " err=%v", t.ErrClasses)
		}
		if t.Pinned {
			b.WriteString(" pinned")
		}
		if !t.Done {
			b.WriteString(" active")
		}
		b.WriteByte('\n')
		writeSpanTree(&b, t, 0, "  ", make([]bool, len(t.Spans)))
	}
	if s.Stats != (SnapshotStats{}) {
		fmt.Fprintf(&b, "stats dropped=%d dropped_active=%d pin_dropped=%d\n",
			s.Stats.Dropped, s.Stats.DroppedActive, s.Stats.PinDropped)
	}
	return b.String()
}

// writeSpanTree prints the spans whose parent is parent, recursively.
// Spans already sit in canonical order, so children print in that order.
// Each span of t.Spans prints once, marked in printed by index: where
// spans share an ID, their children nest under the first of them, so a
// duplicated ID cannot print a subtree twice per level.
func writeSpanTree(b *strings.Builder, t *Trace, parent SpanID, indent string, printed []bool) {
	for i, sp := range t.Spans {
		if sp.Parent != parent || printed[i] {
			continue
		}
		printed[i] = true
		fmt.Fprintf(b, "%sspan %s [%d-%dms]", indent, sp.Name, sp.StartMs, sp.EndMs)
		fmtAttrs(b, sp.Attrs)
		b.WriteByte('\n')
		for _, ev := range sp.Events {
			fmt.Fprintf(b, "%s  @%dms %s", indent, ev.AtMs, ev.Name)
			fmtAttrs(b, ev.Attrs)
			b.WriteByte('\n')
		}
		writeSpanTree(b, t, sp.ID, indent+"  ", printed)
	}
}

// ErrClassCounts tallies traces per error class (the /traces index view).
func (s *Snapshot) ErrClassCounts() map[string]int {
	out := map[string]int{}
	for _, t := range s.Traces {
		for _, c := range t.ErrClasses {
			out[c]++
		}
	}
	return out
}

// SortedErrClasses returns the tally keys in sorted order.
func SortedErrClasses(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
