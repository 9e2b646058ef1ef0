package evlog

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"webtextie/internal/obs/trace"
)

// Exporters render a Snapshot — never the live sink — so every format
// sees one consistent, canonically ordered view. The canonical logfmt
// line is load-bearing: it is the record identity that retention
// priorities hash and the export order sorts on, so identical record
// multisets always render identical bytes.

// line renders the record's canonical logfmt form:
//
//	at_ms=2900 level=warn component=crawler.fetch msg=fetch.error cause="host down" trace=00ab...
//
// Keys are constant snake_case; values are quoted only when they contain
// logfmt metacharacters. The trace field is omitted when zero.
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
	if r.Trace != 0 {
		b.WriteString(" trace=")
		b.WriteString(r.Trace.String())
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

// Filter selects a subset of a snapshot's records. Zero value keeps all.
type Filter struct {
	// Component keeps records whose component contains the substring.
	Component string
	// MinLevel keeps records at or above the level.
	MinLevel Level
	// Msg keeps records whose message contains the substring.
	Msg string
	// Trace keeps records stamped with the trace ID (0 = any).
	Trace uint64
	// Limit caps the number of records (0 = unlimited), applied after
	// the other predicates, keeping the first matches in canonical order.
	Limit int
}

func (f Filter) match(r Record) bool {
	if r.Level < f.MinLevel {
		return false
	}
	if f.Component != "" && !strings.Contains(r.Component, f.Component) {
		return false
	}
	if f.Msg != "" && !strings.Contains(r.Msg, f.Msg) {
		return false
	}
	if f.Trace != 0 && uint64(r.Trace) != f.Trace {
		return false
	}
	return true
}

// Filter returns a shallow-copied snapshot holding only matching
// records. Totals, stats, and buckets pass through unchanged: they
// describe the whole run, not the filtered view.
func (s *Snapshot) Filter(f Filter) *Snapshot {
	out := &Snapshot{Stats: s.Stats, Totals: s.Totals, Buckets: s.Buckets, Records: []Record{}}
	for _, r := range s.Records {
		if !f.match(r) {
			continue
		}
		out.Records = append(out.Records, r)
		if f.Limit > 0 && len(out.Records) >= f.Limit {
			break
		}
	}
	return out
}

// Logfmt renders one canonical line per record — the golden-testable
// machine form, and byte-for-byte the identity retention hashed.
func (s *Snapshot) Logfmt() string {
	var b strings.Builder
	for _, r := range s.Records {
		b.WriteString(r.line())
		b.WriteByte('\n')
	}
	return b.String()
}

// Text renders the human form: aligned records, then per-(level,
// component) totals sorted by key, then the loss counters.
//
//	@2900ms  warn  crawler.fetch fetch.error cause="host down" trace=00ab...
//	total warn crawler.fetch 12
//	stats emitted=99 dropped_sampled=3 dropped_rated=0 dropped_retention=0 pin_dropped=0
func (s *Snapshot) Text() string {
	var b strings.Builder
	for _, r := range s.Records {
		fmt.Fprintf(&b, "@%dms %-5s %s %s", r.AtMs, r.Level, r.Component, r.Msg)
		for _, a := range r.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, logfmtValue(a.Value))
		}
		if r.Trace != 0 {
			fmt.Fprintf(&b, " trace=%s", r.Trace)
		}
		b.WriteByte('\n')
	}
	keys := make([]string, 0, len(s.Totals))
	for k := range s.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "total %s %d\n", k, s.Totals[k])
	}
	if s.Stats != (Stats{}) {
		fmt.Fprintf(&b, "stats emitted=%d dropped_sampled=%d dropped_rated=%d dropped_retention=%d pin_dropped=%d\n",
			s.Stats.Emitted, s.Stats.DroppedSampled, s.Stats.DroppedRated,
			s.Stats.DroppedRetention, s.Stats.PinDropped)
	}
	return b.String()
}

// JSON renders the snapshot as deterministic indented JSON (map keys
// sort under encoding/json).
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// LevelCounts tallies emitted records per level from the totals (the
// doctor's coarse health signal). Keys are level names.
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
