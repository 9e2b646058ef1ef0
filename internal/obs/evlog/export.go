package evlog

import (
	"sort"
	"strconv"
	"strings"

	"webtextie/internal/obs/trace"
)

// Exporters render a Snapshot — never the live sink — so the export sees
// one consistent, canonically ordered view. The canonical logfmt
// line is load-bearing: it is the record identity that retention
// priorities hash and the export order sorts on, so identical record
// multisets always render identical bytes.

// line renders the record's canonical logfmt form:
//
//	at_ms=2900 level=warn component=crawler.breaker msg=breaker.open host=h17.example until_ms=7900
//
// Keys are constant snake_case; values are quoted only when they contain
// logfmt metacharacters.
func (r Record) line() string {
	var b strings.Builder
	b.Grow(64 + len(r.Component) + len(r.Msg) + 32*len(r.Attrs)) // one allocation for most lines
	b.WriteString("at_ms=")
	b.WriteString(strconv.FormatInt(r.AtMs, 10))
	b.WriteString(" level=")
	b.WriteString(r.Level.String())
	b.WriteString(" component=")
	b.WriteString(logfmtValue(r.Component))
	b.WriteString(" msg=")
	b.WriteString(logfmtValue(r.Msg))
	for _, a := range r.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(logfmtValue(a.Value))
	}
	return b.String()
}

// logfmtValue quotes a value when it holds spaces, quotes, equals signs,
// control characters, or is empty.
func logfmtValue(v string) string {
	if v == "" {
		return `""`
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(v)
		}
	}
	return v
}

// canonical returns the entries' records in the canonical export order:
// virtual time first, then the rendered line — both derived from record
// content, so the order is independent of emission interleaving. Each
// record gets its own copy of its attrs.
func canonical(es []entry) []Record {
	sort.Slice(es, func(i, j int) bool {
		if es[i].rec.AtMs != es[j].rec.AtMs {
			return es[i].rec.AtMs < es[j].rec.AtMs
		}
		return es[i].line < es[j].line
	})
	out := make([]Record, len(es))
	for i, e := range es {
		e.rec.Attrs = append([]trace.Attr(nil), e.rec.Attrs...)
		out[i] = e.rec
	}
	return out
}

// Filter selects a subset of a snapshot's records — the two /logs query
// parameters the doctor's evidence lines cite. Zero value keeps all.
type Filter struct {
	// Component keeps records whose component contains the substring.
	Component string
	// MinLevel keeps records at or above the level.
	MinLevel Level
}

// Filter returns a shallow-copied snapshot holding only matching
// records. Totals pass through unchanged: they describe the whole run,
// not the filtered view.
func (s *Snapshot) Filter(f Filter) *Snapshot {
	out := &Snapshot{Totals: s.Totals, Records: []Record{}}
	for _, r := range s.Records {
		if r.Level >= f.MinLevel && strings.Contains(r.Component, f.Component) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Logfmt renders one canonical line per record — the one rendering (the
// -log-out file and the /logs body), and byte-for-byte the identity
// retention hashed.
func (s *Snapshot) Logfmt() string {
	var b strings.Builder
	for _, r := range s.Records {
		b.WriteString(r.line())
		b.WriteByte('\n')
	}
	return b.String()
}

// LevelCounts tallies emitted records per level from the totals, for
// the exit summary's event-log line. Keys are level names.
func (s *Snapshot) LevelCounts() map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range s.Totals {
		if i := strings.IndexByte(k, ' '); i > 0 {
			out[k[:i]] += v
		}
	}
	return out
}

// ComponentTotal returns the emitted count for one (level, component).
func (s *Snapshot) ComponentTotal(lv Level, component string) uint64 {
	return s.Totals[totalKey(lv, component)]
}
