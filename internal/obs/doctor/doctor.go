// Package doctor is the cross-pillar diagnosis engine: a deterministic
// rule set that fuses a metrics snapshot (PR 1), a trace summary (PR 4),
// and an event log (PR 5) into one ranked answer to "what is wrong with
// this crawl?". The paper's authors reconstructed their pitfalls by hand
// from aggregate numbers after the fact (PAPER.md §5-6); doctor encodes
// those reconstructions as rules so an operator — or a test — gets the
// diagnosis on demand.
//
// The engine is pure: Diagnose reads three plain-value snapshots and
// returns a Report whose findings are ranked by (severity, score, rule
// name) with all numbers derived deterministically, so the same run
// state always renders the same report bytes. Rules degrade gracefully —
// each consumes whichever pillars are present and simply finds less with
// less evidence.
package doctor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
)

// Severity grades a finding. The zero value is Note.
type Severity int8

// Severities, in increasing order of alarm.
const (
	Note Severity = iota
	Warning
	Critical
)

var severityNames = [...]string{"note", "warning", "critical"}

// String returns the lower-case severity name.
func (s Severity) String() string {
	if s < Note || s > Critical {
		return fmt.Sprintf("severity(%d)", int8(s))
	}
	return severityNames[s]
}

// Input is everything a rule may consult. Any pillar may be absent
// (zero-value metrics, nil traces/logs); rules consume what is there.
type Input struct {
	// Snapshot is the (possibly fleet-merged) state of the five pillars.
	pillars.Snapshot
	// ShardVirtualMs holds the per-shard virtual clocks of a fleet run
	// (PerShard[i].Stats.VirtualMs), in shard order; nil for
	// single-crawler runs. A fenced shard's entry is -1. The cross-shard
	// skew rule needs the unmerged view.
	ShardVirtualMs []int64
}

// seriesPoints returns one series' raw sample stream, or nil when the
// time-series pillar (or that series) is absent.
func (in Input) seriesPoints(name string) []series.Point {
	if in.Series == nil {
		return nil
	}
	sd := in.Series.Get(name)
	if sd == nil {
		return nil
	}
	return sd.Points
}

// traceErrs returns the trace error-class tally, or an empty map when
// the trace pillar is absent.
func (in Input) traceErrs() map[string]int {
	if in.Traces == nil {
		return map[string]int{}
	}
	return in.Traces.ErrClassCounts()
}

// logTotal returns the emitted count for one (level, component), or 0
// when the log pillar is absent.
func (in Input) logTotal(lv evlog.Level, component string) uint64 {
	if in.Logs == nil {
		return 0
	}
	return in.Logs.ComponentTotal(lv, component)
}

// profScope returns one scope's data from the merged profile, or nil
// when the profile pillar (or that scope) is absent.
func (in Input) profScope(name string) *prof.ScopeData {
	if in.Profile == nil {
		return nil
	}
	return in.Profile.Get(name)
}

// Finding is one diagnosed condition. Score in [0,1] grades magnitude
// within the severity band (a 90% quarantine rate outranks a 30% one);
// Evidence lists the cross-pillar observations the rule fused, one per
// line, already deterministic.
type Finding struct {
	Rule     string
	Severity Severity
	Score    float64
	Summary  string
	Evidence []string
}

// Report is a ranked diagnosis: findings sorted by (severity desc,
// score desc, rule asc, summary asc).
type Report struct {
	Healthy  bool
	Findings []Finding
}

// Diagnose runs every rule over the input and ranks the findings.
func Diagnose(in Input) *Report {
	r := &Report{Findings: []Finding{}}
	for _, rule := range rules {
		r.Findings = append(r.Findings, rule(in)...)
	}
	// Scores grade magnitude, not precision: quantize to 3 decimals so
	// the report stays readable and stable.
	for i := range r.Findings {
		r.Findings[i].Score = math.Round(r.Findings[i].Score*1000) / 1000
	}
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Summary < b.Summary
	})
	r.Healthy = len(r.Findings) == 0
	return r
}

// Text renders the report deterministically:
//
//	crawl doctor: 2 findings
//	critical quarantine-heavy-op score=0.4 operator ner.gene quarantines 40% ...
//	    evidence: dataflow.op.03.ner.gene.quarantined=40 in=100
//	healthy reports render "crawl doctor: healthy".
func (r *Report) Text() string {
	var b strings.Builder
	if r.Healthy {
		b.WriteString("crawl doctor: healthy\n")
		return b.String()
	}
	word := "findings"
	if len(r.Findings) == 1 {
		word = "finding"
	}
	fmt.Fprintf(&b, "crawl doctor: %d %s\n", len(r.Findings), word)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%-8s %s score=%s %s\n",
			f.Severity, f.Rule, strconv.FormatFloat(f.Score, 'g', -1, 64), f.Summary)
		for _, e := range f.Evidence {
			fmt.Fprintf(&b, "    evidence: %s\n", e)
		}
	}
	return b.String()
}

// pct renders a ratio as an integer percentage string — coarse on
// purpose, so summaries stay stable and readable.
func pct(num, den int64) string {
	if den <= 0 {
		return "0%"
	}
	return strconv.FormatInt(num*100/den, 10) + "%"
}

// ratio returns num/den clamped to [0,1] (0 when den is 0).
func ratio(num, den int64) float64 {
	if den <= 0 || num <= 0 {
		return 0
	}
	r := float64(num) / float64(den)
	if r > 1 {
		return 1
	}
	return r
}
