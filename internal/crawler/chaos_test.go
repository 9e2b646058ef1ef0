package crawler

import (
	"sort"
	"testing"

	"webtextie/internal/synthweb"
)

func urlSet(pages []CrawledPage) map[string]bool {
	s := make(map[string]bool, len(pages))
	for _, p := range pages {
		s[p.URL] = true
	}
	return s
}

func sortedURLs(pages []CrawledPage) []string {
	out := make([]string, 0, len(pages))
	for _, p := range pages {
		out = append(out, p.URL)
	}
	sort.Strings(out)
	return out
}

// chaosWeb is the full fault surface: flaky URLs, dead hosts, latency
// spikes, throttling, and truncated transfers.
func chaosWeb(c *synthweb.Config) {
	c.FailureRate = 0.3
	c.DeadHostShare = 0.1
	c.SlowHostShare = 0.2
	c.RateLimitShare = 0.2
	c.TruncateRate = 0.05
}

// TestChaosRetriesRecoverEverything: with no dead hosts and no truncation,
// every fault is recoverable within the retry budget, so the crawl run to
// frontier exhaustion stores exactly the corpus of the fault-free crawl —
// page for page.
func TestChaosRetriesRecoverEverything(t *testing.T) {
	crawl := func(mutate func(*synthweb.Config)) *Result {
		p := chaosPipeline(t, 40, mutate)
		cfg := DefaultConfig()
		cfg.MaxPagesPerHost = 1 << 20 // trap guard off: injection timing must not matter
		return New(cfg, p.web, p.clf).Run(defaultSeeds(t, p))
	}
	clean := crawl(nil)
	faulty := crawl(func(c *synthweb.Config) {
		c.FailureRate = 0.4
		c.SlowHostShare = 0.25
		c.RateLimitShare = 0.3
	})
	if got, want := sortedURLs(faulty.Relevant), sortedURLs(clean.Relevant); len(got) != len(want) {
		t.Fatalf("relevant corpus: %d pages faulty vs %d clean", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("corpus diverges: %s vs %s", got[i], want[i])
			}
		}
	}
	if faulty.Stats.Retries == 0 {
		t.Fatal("faulty crawl never retried")
	}
	if faulty.Stats.RetriesExhausted != 0 {
		t.Fatalf("%d URLs abandoned despite every fault being recoverable", faulty.Stats.RetriesExhausted)
	}
	// Slow hosts cost virtual time: the faulty crawl must be slower.
	if faulty.Stats.VirtualMs <= clean.Stats.VirtualMs {
		t.Error("injected latency did not slow the virtual clock")
	}
}

// TestChaosDeadHostsExcluded: with dead hosts in the mix, the converged
// corpus is the fault-free corpus minus pages on dead hosts (and pages
// only discoverable through them) — nothing on a live host that the crawl
// discovered is lost, and breakers open on the dead hosts.
func TestChaosDeadHostsExcluded(t *testing.T) {
	mutate := func(c *synthweb.Config) {
		c.FailureRate = 0.35
		c.DeadHostShare = 0.12
		c.RateLimitShare = 0.25
	}
	crawl := func(m func(*synthweb.Config)) (*Result, *pipeline) {
		p := chaosPipeline(t, 40, m)
		cfg := DefaultConfig()
		cfg.MaxPagesPerHost = 1 << 20
		return New(cfg, p.web, p.clf).Run(defaultSeeds(t, p)), p
	}
	clean, _ := crawl(nil)
	faulty, fp := crawl(mutate)

	cleanSet := urlSet(clean.Relevant)
	deadHosts := map[string]bool{}
	for _, h := range fp.web.Hosts {
		if fp.web.HostFaults(h.Name).Dead {
			deadHosts[h.Name] = true
		}
	}
	if len(deadHosts) == 0 {
		t.Fatal("no dead hosts drawn at share 0.12")
	}
	onDeadHost := func(u string) bool {
		h, _, err := synthweb.SplitURL(u)
		return err == nil && deadHosts[h]
	}
	// (1) Nothing from a dead host made it into the corpus.
	for u := range urlSet(faulty.Relevant) {
		if onDeadHost(u) {
			t.Fatalf("dead-host page %s in corpus", u)
		}
		// (2) Everything stored is part of the fault-free corpus.
		if !cleanSet[u] {
			t.Fatalf("faulty crawl stored %s, absent from fault-free corpus", u)
		}
	}
	// (3) Every fault-free relevant page on a live host that the faulty
	// crawl discovered was recovered by the retry machinery.
	faultySet := urlSet(faulty.Relevant)
	lost := 0
	for u := range cleanSet {
		if onDeadHost(u) {
			continue
		}
		if _, known := faulty.CrawlDB.StatusOf(u); known && !faultySet[u] {
			t.Errorf("live-host page %s discovered but lost", u)
			lost++
			if lost > 5 {
				t.FailNow()
			}
		}
	}
	// (4) Coverage stays substantial: dead hosts cost their own pages, not
	// the crawl.
	if len(faultySet) < len(cleanSet)/2 {
		t.Fatalf("corpus collapsed: %d of %d fault-free pages", len(faultySet), len(cleanSet))
	}
	// (5) Breakers tripped on the dead hosts and are visible in obs.
	if faulty.Stats.BreakerOpens == 0 || faulty.Metrics.Counter("crawler.breaker.opened") == 0 {
		t.Error("no breaker opened despite dead hosts")
	}
	if faulty.Metrics.Counter("crawler.breaker.deferred") == 0 {
		t.Error("open breakers never deferred a fetch")
	}
}
