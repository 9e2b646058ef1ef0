// Sharded chaos: the fault machinery (retries, backoff, rate limits,
// circuit breakers) must stay shard-local and the merged corpus must not
// depend on the shard count. Run under -race via `make chaos` — the
// DoP > 1 rounds exercise the worker pool with the full fault surface on.

package shard

import (
	"testing"

	"webtextie/internal/crawler"
	"webtextie/internal/synthweb"
)

// chaosWeb mirrors the unsharded chaos suite's fault surface.
func chaosWeb(c *synthweb.Config) {
	c.FailureRate = 0.3
	c.DeadHostShare = 0.1
	c.SlowHostShare = 0.2
	c.RateLimitShare = 0.2
	c.TruncateRate = 0.05
}

// uncappedChaos drops the per-host page cap: with faults on, the order
// hosts hit the cap is the one remaining order-dependent cutoff, so an
// S-independent corpus comparison needs the cap out of the way.
func uncappedChaos(cfg *crawler.Config) {
	cfg.MaxPages = 0
	cfg.MaxPagesPerHost = 100_000
}

// Under the full fault surface, every URL a shard ever touched must hash
// to that shard — politeness, retries, and breakers never cross shards.
func TestChaosShardLocality(t *testing.T) {
	e := newEnv(t, 60, chaosWeb)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 4, Parallelism: 4}
	uncappedChaos(&cfg.Crawl)
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(e.seeds)
	if !res.Stats.FrontierEmptied {
		t.Error("chaos fleet should drain its frontiers")
	}
	if res.Stats.Retries == 0 || res.Stats.BreakerOpens == 0 {
		t.Fatalf("fault machinery never engaged: %d retries, %d breaker opens",
			res.Stats.Retries, res.Stats.BreakerOpens)
	}
	for i, ps := range res.PerShard {
		for url := range ps.CrawlDB.Snapshot().Status {
			host, _, err := synthweb.SplitURL(url)
			if err != nil {
				t.Fatalf("shard %d tracked unparseable URL %q", i, url)
			}
			if got := Of(host, cfg.Shards); got != i {
				t.Fatalf("shard %d tracked %q, which hashes to shard %d", i, url, got)
			}
		}
	}
}

// The reachable set is a property of the web, not of the partitioning:
// with faults on and the page caps off, a 4-shard crawl must store
// exactly the URLs an unsharded crawl stores. (Byte identity across S is
// not expected — virtual clocks differ — but the corpus membership is.)
func TestChaosCorpusIndependentOfShardCount(t *testing.T) {
	e := newEnv(t, 50, chaosWeb)

	cfg := crawler.DefaultConfig()
	uncappedChaos(&cfg)
	plain := crawler.New(cfg, e.newWeb(), e.clf).Run(e.seeds)

	scfg := Config{Crawl: cfg, Shards: 4, Parallelism: 4}
	r, err := New(scfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	sharded := r.Run(e.seeds)

	urlSet := func(pages []crawler.CrawledPage) map[string]bool {
		out := make(map[string]bool, len(pages))
		for _, p := range pages {
			out[p.URL] = true
		}
		return out
	}
	compare := func(class string, plainPages, shardedPages []crawler.CrawledPage) {
		want, got := urlSet(plainPages), urlSet(shardedPages)
		for u := range want {
			if !got[u] {
				t.Errorf("%s corpus: %s stored unsharded but missing at S=4", class, u)
			}
		}
		for u := range got {
			if !want[u] {
				t.Errorf("%s corpus: %s stored at S=4 but not unsharded", class, u)
			}
		}
	}
	compare("relevant", plain.Relevant, sharded.Relevant)
	compare("irrelevant", plain.IrrelevantPages, sharded.IrrelevantPages)
	if plain.Stats.Fetched != sharded.Stats.Fetched {
		t.Errorf("fetched counts diverge: %d unsharded, %d at S=4",
			plain.Stats.Fetched, sharded.Stats.Fetched)
	}
}
