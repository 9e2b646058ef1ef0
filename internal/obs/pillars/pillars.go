// Package pillars spells the five observability pillars — metrics,
// traces, logs, series, profile — exactly once. Everything that carries
// them (crawler, shard runner, supervisor, executor config, checkpoints,
// results, the doctor's input, the CLI and debug-server wiring) embeds
// Set for the live handles or Snapshot for the frozen state, so a hop
// between two of them is one assignment, not five nil-guarded copies.
package pillars

import (
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// Set holds the live handle of each pillar. A nil handle means that
// pillar is off.
type Set struct {
	Metrics *obs.Registry
	Trace   *trace.Recorder
	Log     *evlog.Sink
	Series  *series.Recorder
	Prof    *prof.Profiler
}

// Snapshot is the frozen state of the five pillars: what a checkpoint
// stores, a result exports, and the doctor diagnoses. Metrics is a plain
// value (zero when off); the other four are nil when their pillar was
// off.
type Snapshot struct {
	Metrics obs.Snapshot     `json:"metrics"`
	Traces  *trace.Snapshot  `json:"traces,omitempty"`
	Logs    *evlog.Snapshot  `json:"logs,omitempty"`
	Series  *series.Snapshot `json:"series,omitempty"`
	Profile *prof.Snapshot   `json:"profile,omitempty"`
}

// Snapshot freezes every attached pillar. Off stays nil: a nil recorder
// or sink would hand back an empty non-nil snapshot of its own, which
// every consumer reads as "on, and saw nothing".
func (s Set) Snapshot() Snapshot {
	var out Snapshot
	if s.Metrics != nil {
		out.Metrics = s.Metrics.Snapshot()
	}
	if s.Trace != nil {
		out.Traces = s.Trace.Snapshot()
	}
	if s.Log != nil {
		out.Logs = s.Log.Snapshot()
	}
	out.Series = s.Series.Snapshot()
	out.Profile = s.Prof.Snapshot()
	return out
}

// Load restores a snapshot into the attached pillars — the resume half
// of checkpoint/resume. Pillars that are off, or absent from the
// snapshot, are skipped.
func (s Set) Load(snap Snapshot) {
	if s.Metrics != nil {
		s.Metrics.Load(snap.Metrics)
	}
	s.Trace.Load(snap.Traces)
	s.Log.Load(snap.Logs)
	s.Series.Load(snap.Series)
	s.Prof.Load(snap.Profile)
}

// Merge folds snapshots — per-shard results, or a crawl's pillars with
// its supervisor's — into one, in argument order, through each pillar's
// own merge. A pillar nobody had on stays nil. Series have no merge
// (sample streams on different clocks do not add), so the first one
// present is carried through.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	traces := make([]*trace.Snapshot, len(snaps))
	logs := make([]*evlog.Snapshot, len(snaps))
	profs := make([]*prof.Snapshot, len(snaps))
	var anyTrace, anyLog, anyProf bool
	for i, s := range snaps {
		if i == 0 {
			out.Metrics = s.Metrics
		} else {
			out.Metrics = out.Metrics.Merge(s.Metrics)
		}
		traces[i], logs[i], profs[i] = s.Traces, s.Logs, s.Profile
		anyTrace = anyTrace || s.Traces != nil
		anyLog = anyLog || s.Logs != nil
		anyProf = anyProf || s.Profile != nil
		if out.Series == nil {
			out.Series = s.Series
		}
	}
	if anyTrace {
		out.Traces = trace.Merge(traces...)
	}
	if anyLog {
		out.Logs = evlog.Merge(logs...)
	}
	if anyProf {
		out.Profile = prof.Merge(profs...)
	}
	return out
}
