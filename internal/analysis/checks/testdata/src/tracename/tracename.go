// Package tracename exercises the tracename analyzer: non-constant or
// grammar-violating span/event names and attr keys are flagged; constant
// dotted names, lower_snake labels, the TraceName builder, and suppressed
// legacy names are not.
package tracename

import "webtextie/internal/obs/trace"

// Good uses constant dotted names and lower_snake attr keys — not flagged.
func Good(rec *trace.Recorder) {
	tc := rec.Start("fixture.record", "doc-1", 0, trace.String("host", "h1"))
	sp := tc.StartSpan("fixture.op.parse", 1, trace.Int("attempt", 0))
	sp.Event("fixture.parse.ok", 2)
	sp.End(3)
	tc.Error("parse_failed", 4)
	tc.Event("fixture.record.done", 5)
	tc.Finish(6)
}

// BadGrammar uses an upper-case, undotted span name — flagged.
func BadGrammar(rec *trace.Recorder) {
	rec.Start("FixtureRecord", "doc-2", 0).Finish(1)
}

// DynamicEvent interpolates data into an event name — flagged.
func DynamicEvent(tc trace.Context, verdict string) {
	tc.Event("fixture."+verdict, 0)
}

// BadAttrKey uses a dashed attribute key — flagged.
func BadAttrKey(tc trace.Context) {
	tc.Event("fixture.judge", 0, trace.String("Net-Text-Len", "9"))
}

// DynamicErrClass computes the error class — flagged (classes are filter
// keys on /traces).
func DynamicErrClass(tc trace.Context, cause string) {
	tc.Error(cause, 0)
}

// Built routes a computed span name through the sanctioned builder — not
// flagged.
func Built(tc trace.Context, op string) {
	tc.StartSpan(trace.TraceName("fixture.op", op), 0).End(1)
}

// Legacy is suppressed: an exporter consumed the old name until the
// migration lands.
func Legacy(tc trace.Context) {
	//lintx:ignore tracename legacy event name until the exporter migration lands
	tc.Event("LegacyEvent", 0)
}
