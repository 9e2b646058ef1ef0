package shard

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/trace"
)

// callRows renders the deterministic half of a profile: one "scope
// calls" row per scope. crawl.checkpoint is left out — it counts the
// checkpoints this process wrote, which an interrupted run has and an
// uninterrupted one has not.
func callRows(s *prof.Snapshot) string {
	var b strings.Builder
	for _, sd := range s.Scopes {
		if sd.Name != "crawl.checkpoint" {
			fmt.Fprintf(&b, "%s %d\n", sd.Name, sd.Calls)
		}
	}
	return b.String()
}

// runShardedProf executes a budgeted sharded crawl with per-shard
// profiling and returns the result, whose merged Profile is non-nil.
func runShardedProf(t *testing.T, e *env, shards, parallelism, maxPages int) *Result {
	t.Helper()
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: shards, Parallelism: parallelism}
	cfg.Crawl.MaxPages = maxPages
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithProf(prof.Config{})
	res := r.Run(e.seeds)
	if res.Profile == nil {
		t.Fatal("fleet with profilers produced no merged profile")
	}
	return res
}

// TestFleetProfileDeterministicAcrossDoP: profilers are shard-scoped and
// merged by summation, so for a fixed shard count the merged call rows
// are identical at any degree of parallelism.
func TestFleetProfileDeterministicAcrossDoP(t *testing.T) {
	e := newEnv(t, 120, nil)
	const shards = 4
	res := runShardedProf(t, e, shards, 1, 800)
	fetch := res.Profile.Get("crawl.cycle.fetch")
	// Merged calls sum across shards: one per fleet-wide fetch attempt.
	if want := res.Metrics.Counter("crawler.fetch.ok") + res.Metrics.Counter("crawler.fetch.errors"); fetch == nil || fetch.Calls == 0 || fetch.Calls != want {
		t.Errorf("merged fetch scope = %+v, want %d fleet fetch attempts", fetch, want)
	}
	for _, dop := range []int{2, shards} {
		if got, want := callRows(runShardedProf(t, e, shards, dop, 800).Profile), callRows(res.Profile); got != want {
			t.Errorf("DoP %d merged call rows diverge from DoP 1:\n%s\nvs\n%s", dop, got, want)
		}
	}
}

// TestFleetProfilingInvisible: attaching per-shard profilers must not
// change any other export surface.
func TestFleetProfilingInvisible(t *testing.T) {
	e := newEnv(t, 60, nil)
	plain := runSharded(t, e, 3, 3, 300)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 3}
	cfg.Crawl.MaxPages = 300
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7)).WithProf(prof.Config{})
	res := r.Run(e.seeds)
	if plain.corpus != res.CorpusManifest() {
		t.Error("corpus manifest changes when fleet profiling is on")
	}
	if plain.metrics != res.Metrics.Text() {
		t.Error("metric export changes when fleet profiling is on")
	}
	if plain.traces != res.Traces.Text() {
		t.Error("trace export changes when fleet profiling is on")
	}
	if plain.logs != res.Logs.Logfmt() {
		t.Error("log export changes when fleet profiling is on")
	}
}

// TestFleetProfileIdenticalAfterResume: a fleet checkpointed at a round
// barrier and resumed in fresh objects (at a different DoP) ends with the
// same merged call rows — each shard's accumulators ride its embedded
// crawler checkpoint.
func TestFleetProfileIdenticalAfterResume(t *testing.T) {
	e := newEnv(t, 80, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 2}
	cfg.Crawl.MaxPages = 400

	ref, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.WithProf(prof.Config{}).Run(e.seeds)

	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithProf(prof.Config{})
	r.Seed(e.seeds)
	for i := 0; i < 3 && r.Round(); i++ {
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	resumedCfg := cfg
	resumedCfg.Parallelism = 3
	rr, err := Resume(resumedCfg, e.newWeb, e.clf, cp2)
	if err != nil {
		t.Fatal(err)
	}
	rr.WithProf(prof.Config{}) // each shard loads its checkpointed snapshot
	for rr.Round() {
	}
	gotRes := rr.Finish()

	if callRows(refRes.Profile) != callRows(gotRes.Profile) {
		t.Fatalf("merged call rows diverge after resume:\n--- uninterrupted\n%s\n--- resumed\n%s",
			callRows(refRes.Profile), callRows(gotRes.Profile))
	}
}
