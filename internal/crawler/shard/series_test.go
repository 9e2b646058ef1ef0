package shard

import (
	"bytes"
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// runShardedSeries executes a budgeted sharded crawl with fleet sampling
// and returns the series exports plus the merged result.
func runShardedSeries(t *testing.T, e *env, shards, parallelism, maxPages int) (string, []byte, *Result) {
	t.Helper()
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: shards, Parallelism: parallelism}
	cfg.Crawl.MaxPages = maxPages
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithSeries(series.DefaultConfig())
	res := r.Run(e.seeds)
	if res.Series == nil {
		t.Fatal("fleet with a series recorder produced no series snapshot")
	}
	js, err := res.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return res.Series.CSV(), js, res
}

// TestFleetSeriesDeterministicAcrossDoP: fleet sampling happens at the
// round barrier on one goroutine, so for a fixed shard count the series
// exports are byte-identical at any degree of parallelism.
func TestFleetSeriesDeterministicAcrossDoP(t *testing.T) {
	e := newEnv(t, 120, nil)
	const shards = 4
	baseCSV, baseJSON, res := runShardedSeries(t, e, shards, 1, 800)
	if len(res.Series.Series) == 0 {
		t.Fatal("DoP-1 fleet retained no series")
	}
	// One sample per round, per metric.
	fetchOK := res.Series.Get("crawler.fetch.ok")
	if fetchOK == nil {
		t.Fatal("crawler.fetch.ok fleet series missing")
	}
	if int(fetchOK.Total) != res.Rounds {
		t.Errorf("fleet crawler.fetch.ok has %d samples for %d rounds", fetchOK.Total, res.Rounds)
	}
	if res.Series.Get("fleet.rounds") == nil || res.Series.Get("crawler.harvest.rate.docs") == nil {
		t.Error("derived fleet series missing")
	}
	// Samples are stamped on the makespan clock: the last sample's time
	// is the fleet's virtual duration.
	if last, ok := fetchOK.Last(); !ok || last.AtMs != res.Stats.VirtualMs {
		t.Errorf("last sample at %v, want the fleet makespan %d", last, res.Stats.VirtualMs)
	}
	for _, dop := range []int{2, shards} {
		csv, js, _ := runShardedSeries(t, e, shards, dop, 800)
		if csv != baseCSV {
			t.Errorf("DoP %d series CSV diverges from DoP 1", dop)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("DoP %d series JSON diverges from DoP 1", dop)
		}
	}
}

// TestFleetSeriesDeterministicAcrossRuns: rerunning the identical fleet
// plan reproduces the series exports byte for byte.
func TestFleetSeriesDeterministicAcrossRuns(t *testing.T) {
	e := newEnv(t, 80, nil)
	csvA, jsA, _ := runShardedSeries(t, e, 3, 3, 400)
	csvB, jsB, _ := runShardedSeries(t, e, 3, 3, 400)
	if csvA != csvB || !bytes.Equal(jsA, jsB) {
		t.Error("fleet series exports diverge across identical runs")
	}
}

// TestFleetSeriesSamplingInvisible: attaching the fleet recorder must not
// change any other export surface — sampling only reads barrier state.
func TestFleetSeriesSamplingInvisible(t *testing.T) {
	e := newEnv(t, 60, nil)
	plain := runSharded(t, e, 3, 3, 300)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 3}
	cfg.Crawl.MaxPages = 300
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTrace(trace.DefaultConfig(7)).WithLog(evlog.DefaultConfig(7)).WithSeries(series.DefaultConfig())
	res := r.Run(e.seeds)
	if plain.corpus != res.CorpusManifest() {
		t.Error("corpus manifest changes when fleet sampling is on")
	}
	if plain.metrics != res.Metrics.Text() {
		t.Error("metric export changes when fleet sampling is on")
	}
	if plain.logs != res.Logs.Logfmt() {
		t.Error("log export changes when fleet sampling is on")
	}
}

// TestFleetSeriesIdenticalAfterResume: a fleet checkpointed at a round
// barrier, its series rings already wrapped, and resumed in fresh objects
// exports byte-identical series.
func TestFleetSeriesIdenticalAfterResume(t *testing.T) {
	e := newEnv(t, 80, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 3, Parallelism: 2}
	cfg.Crawl.MaxPages = 400
	cfg.Crawl.FetchListSize = 20     // several rounds on each side of the cut
	sCfg := series.Config{RawCap: 2} // shorter than the three rounds before the cut

	// Uninterrupted reference.
	ref, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.WithSeries(sCfg).Run(e.seeds)

	// Interrupted run: a few rounds, checkpoint, JSON round-trip, resume
	// at a different DoP, finish.
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.WithSeries(sCfg)
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
	evicted := false
	for _, sd := range cp2.Series.Series {
		evicted = evicted || sd.Total > int64(len(sd.Points))
	}
	if !evicted {
		t.Fatal("no series ring has wrapped at the cut; eviction across resume is untested")
	}
	resumedCfg := cfg
	resumedCfg.Parallelism = 3
	rr, err := Resume(resumedCfg, e.newWeb, e.clf, cp2)
	if err != nil {
		t.Fatal(err)
	}
	rr.WithSeries(series.DefaultConfig()) // Load adopts the checkpoint's config
	for rr.Round() {
	}
	gotRes := rr.Finish()

	if refRes.Series.CSV() != gotRes.Series.CSV() {
		t.Fatal("fleet series CSV exports diverge after resume")
	}
	refJSON, err := refRes.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := gotRes.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("fleet series JSON exports diverge after resume")
	}
	if len(refRes.Series.Series) == 0 {
		t.Fatal("reference fleet retained no series")
	}
}
