package crawler

import (
	"bytes"
	"strings"
	"testing"

	"webtextie/internal/obs/series"
)

// runWithSeries executes a budgeted chaos crawl with per-cycle sampling
// and returns the series exports.
func runWithSeries(t *testing.T, maxPages int) (csv string, js []byte, res *Result) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxPages = maxPages
	p := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p.web, p.clf).WithSeries(series.New(series.DefaultConfig()))
	res = c.Run(defaultSeeds(t, p))
	if res.Series == nil {
		t.Fatal("crawl with a series recorder produced no series snapshot")
	}
	js, err := res.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return res.Series.CSV(), js, res
}

// TestSeriesExportDeterministic: identical crawls sample identical series.
func TestSeriesExportDeterministic(t *testing.T) {
	csvA, jsA, resA := runWithSeries(t, 250)
	csvB, jsB, _ := runWithSeries(t, 250)
	if csvA != csvB {
		t.Error("series CSV exports diverge across identical runs")
	}
	if !bytes.Equal(jsA, jsB) {
		t.Error("series JSON exports diverge across identical runs")
	}
	// The sample streams really are per-cycle: every counter series holds
	// one point per cycle (none evicted at this scale).
	fetchOK := resA.Series.Get("crawler.fetch.ok")
	if fetchOK == nil {
		t.Fatal("crawler.fetch.ok series missing")
	}
	if int(fetchOK.Total) != resA.Stats.Cycles {
		t.Errorf("crawler.fetch.ok has %d samples for %d cycles", fetchOK.Total, resA.Stats.Cycles)
	}
	if hr := resA.Series.Get("crawler.harvest.rate.docs"); hr == nil {
		t.Error("derived harvest-rate series missing")
	} else if v, _ := hr.Last(); v.V != resA.Stats.HarvestRateDocs() {
		t.Errorf("final harvest-rate sample %v != Stats.HarvestRateDocs %v", v.V, resA.Stats.HarvestRateDocs())
	}
	// Timestamps ride the virtual clock, monotonically nondecreasing.
	for i := 1; i < len(fetchOK.Points); i++ {
		if fetchOK.Points[i].AtMs < fetchOK.Points[i-1].AtMs {
			t.Fatalf("series timestamps regress at %d: %v", i, fetchOK.Points[i-1:i+1])
		}
	}
}

// TestSeriesSamplingInvisibleToMetrics: attaching a recorder must not
// change the final metric export — sampleSeries refreshes only gauges
// that Finish overwrites anyway.
func TestSeriesSamplingInvisibleToMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 200
	p1 := chaosPipeline(t, 40, chaosWeb)
	plain := New(cfg, p1.web, p1.clf).Run(defaultSeeds(t, p1))
	p2 := chaosPipeline(t, 40, chaosWeb)
	sampled := New(cfg, p2.web, p2.clf).
		WithSeries(series.New(series.DefaultConfig())).
		Run(defaultSeeds(t, p2))
	if plain.Metrics.Text() != sampled.Metrics.Text() {
		t.Error("metric exports diverge when sampling is on")
	}
	if plain.Stats != sampled.Stats {
		t.Error("stats diverge when sampling is on")
	}
}

// TestCheckpointResumeSeriesExportIdentical: a crawl interrupted after a
// few cycles and resumed in fresh objects exports byte-identical series —
// the rings, already wrapped at the cut, and their all-time totals ride
// the checkpoint.
func TestCheckpointResumeSeriesExportIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 250
	cfg.FetchListSize = 60 // several cycles on each side of the cut
	seedsOf := func(p *pipeline) []string { return defaultSeeds(t, p) }
	// A ring shorter than the three cycles before the cut, so eviction
	// is in play at the cut point.
	sCfg := series.Config{RawCap: 2}

	p1 := chaosPipeline(t, 50, chaosWeb)
	ref := New(cfg, p1.web, p1.clf).WithSeries(series.New(sCfg)).Run(seedsOf(p1))

	p2 := chaosPipeline(t, 50, chaosWeb)
	c := New(cfg, p2.web, p2.clf).WithSeries(series.New(sCfg))
	c.Seed(seedsOf(p2))
	for i := 0; i < 3 && c.Step(); i++ {
	}
	raw, err := c.Checkpoint().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"series"`) {
		t.Fatal("checkpoint JSON carries no series snapshot")
	}
	cp, err := UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	evicted := false
	for _, sd := range cp.Series.Series {
		evicted = evicted || sd.Total > int64(len(sd.Points))
	}
	if !evicted {
		t.Fatal("no series ring has wrapped at the cut; eviction across resume is untested")
	}
	p3 := chaosPipeline(t, 50, chaosWeb)
	rc, err := Resume(cfg, p3.web, p3.clf, cp)
	if err != nil {
		t.Fatal(err)
	}
	rc.WithSeries(series.New(series.DefaultConfig())) // Load adopts the checkpoint's config
	for rc.Step() {
	}
	got := rc.Finish()

	if ref.Series.CSV() != got.Series.CSV() {
		t.Fatalf("series CSV exports diverge after resume:\n--- uninterrupted\n%s\n--- resumed\n%s",
			ref.Series.CSV(), got.Series.CSV())
	}
	refJSON, err := ref.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.Series.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("series JSON exports diverge after resume")
	}
	if len(ref.Series.Series) == 0 {
		t.Fatal("reference run retained no series")
	}
}
