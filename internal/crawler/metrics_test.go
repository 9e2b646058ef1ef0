package crawler

import (
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/synthweb"
)

// TestMetricsZeroPageCrawl: an empty seed list must terminate immediately
// with an all-zero metric snapshot (no phantom cycles or fetches).
func TestMetricsZeroPageCrawl(t *testing.T) {
	p := newPipeline(t, 20)
	res := New(DefaultConfig(), p.web, p.clf).Run(nil)
	if res.Stats.Fetched != 0 || res.Stats.Cycles != 0 {
		t.Fatalf("zero-seed crawl did work: %+v", res.Stats)
	}
	if !res.Stats.FrontierEmptied {
		t.Error("zero-seed crawl should report an emptied frontier")
	}
	snap := res.Metrics
	for _, name := range []string{
		"crawler.cycles", "crawler.fetch.ok", "crawler.fetch.errors",
		"crawler.fetch.bytes", "crawler.robots.blocked",
		"crawler.links.discovered", "crawler.classify.relevant",
	} {
		if v := snap.Counter(name); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	for _, name := range []string{"crawler.frontier.pending", "crawler.frontier.known", "crawler.virtual.ms"} {
		if v := snap.Gauge(name); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	if h, ok := snap.Hists["crawler.page.cost.ms"]; ok && h.Count != 0 {
		t.Errorf("crawler.page.cost.ms count = %d, want 0", h.Count)
	}
}

// trapSeeds returns the default seeds plus direct trap entry points for
// every trap host that robots.txt does not protect.
func trapSeeds(t *testing.T, p *pipeline) []string {
	t.Helper()
	seedURLs := defaultSeeds(t, p)
	traps := 0
	for _, h := range p.web.Hosts {
		if h.Trap && !h.DisallowTrap {
			seedURLs = append(seedURLs, synthweb.TrapURL(h.Name, 1))
			traps++
		}
	}
	if traps == 0 {
		t.Skip("no unprotected trap hosts in this web")
	}
	return seedURLs
}

// TestMetricsMatchStatsOnTrapCrawl drives a crawl seeded into spider traps
// and checks that every obs counter agrees with the corresponding Stats
// field — the registry is a second, independently-maintained account of
// the same events.
func TestMetricsMatchStatsOnTrapCrawl(t *testing.T) {
	p := newPipeline(t, 60)
	cfg := DefaultConfig()
	cfg.MaxPages = 400
	res := New(cfg, p.web, p.clf).Run(trapSeeds(t, p))
	st := res.Stats
	if st.Fetched == 0 {
		t.Fatal("nothing fetched")
	}
	snap := res.Metrics

	checks := []struct {
		name string
		want int64
	}{
		{"crawler.cycles", int64(st.Cycles)},
		{"crawler.fetch.ok", int64(st.Fetched)},
		{"crawler.fetch.errors", int64(st.FetchErrors)},
		{"crawler.robots.blocked", int64(st.RobotsBlocked)},
		{"crawler.filter.mime", int64(st.FilteredMIME)},
		{"crawler.filter.lang", int64(st.FilteredLang)},
		{"crawler.filter.length", int64(st.FilteredLength)},
		{"crawler.classify.relevant", int64(st.Relevant)},
		{"crawler.classify.irrelevant", int64(st.Irrelevant)},
		{"crawler.entity.boosted", int64(st.EntityBoosted)},
		{"crawler.selftrain.updates", int64(st.SelfTrainUpdates)},
	}
	for _, c := range checks {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, Stats says %d", c.name, got, c.want)
		}
	}
	var bytes int64
	for _, pg := range res.Relevant {
		bytes += int64(pg.Bytes)
	}
	for _, pg := range res.IrrelevantPages {
		bytes += int64(pg.Bytes)
	}
	if got := snap.Counter("crawler.fetch.bytes"); got < bytes {
		t.Errorf("crawler.fetch.bytes = %d, classified pages alone have %d", got, bytes)
	}
	if got := snap.Gauge("crawler.virtual.ms"); got != st.VirtualMs {
		t.Errorf("crawler.virtual.ms = %d, Stats says %d", got, st.VirtualMs)
	}
	// Per-cycle fetch histogram: one observation per cycle, summing to the
	// total fetch count.
	if h, ok := snap.Hists["crawler.cycle.fetched"]; !ok || h.Count != int64(st.Cycles) || int64(h.Sum) != int64(st.Fetched) {
		t.Errorf("crawler.cycle.fetched count=%d sum=%v, want count=%d sum=%d",
			h.Count, h.Sum, st.Cycles, st.Fetched)
	}
	// Page cost is observed once per fetch attempt (successful or failed).
	if h, ok := snap.Hists["crawler.page.cost.ms"]; !ok || h.Count != int64(st.Fetched+st.FetchErrors) {
		t.Errorf("crawler.page.cost.ms count = %d, want %d", h.Count, st.Fetched+st.FetchErrors)
	}
}

// TestWithMetricsSharedRegistry: WithMetrics(reg) must report into the
// caller's registry and accumulate across crawls.
func TestWithMetricsSharedRegistry(t *testing.T) {
	reg := obs.New()
	var fetched int64
	for i := 0; i < 2; i++ {
		p := newPipeline(t, 30)
		cfg := DefaultConfig()
		cfg.MaxPages = 100
		res := New(cfg, p.web, p.clf).WithMetrics(reg).Run(defaultSeeds(t, p))
		fetched += int64(res.Stats.Fetched)
	}
	if got := reg.Snapshot().Counter("crawler.fetch.ok"); got != fetched {
		t.Errorf("shared registry fetch.ok = %d, want %d", got, fetched)
	}
	if got := reg.Snapshot().Counter("crawler.cycles"); got == 0 {
		t.Error("shared registry has no cycles")
	}
}
