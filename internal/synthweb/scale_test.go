package synthweb

import (
	"bytes"
	"fmt"
	"testing"

	"webtextie/internal/mimetype"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

func buildWeb(cfg Config) *Web {
	lex := textgen.NewLexicon(rng.New(11), textgen.LexiconSizes{Genes: 300, Drugs: 100, Diseases: 100}, 0.75)
	gen := textgen.NewGenerator(12, lex, textgen.DefaultProfiles())
	return New(cfg, gen)
}

// totalPages returns the number of regular pages in the universe (the
// finite URL space; trap chains are excluded as they are unbounded).
func totalPages(w *Web) int {
	total := 0
	for _, h := range w.Hosts {
		total += h.Pages
	}
	return total
}

// materialize eagerly renders every regular page into a URL-keyed map —
// the precomputed form the lazy render path is tested against. Trap pages
// are excluded (their URL space is infinite by design). At bench scale
// (~1M pages) the map would cost gigabytes, which is exactly why the
// crawl path renders lazily instead.
func materialize(w *Web) map[string]*Page {
	out := make(map[string]*Page, totalPages(w))
	for _, h := range w.Hosts {
		for idx := 0; idx < h.Pages; idx++ {
			// Key by the canonical request URL — binary noise pages advertise
			// a rewritten display URL (.pdf/.png) in Page.URL, but they are
			// fetched at the .html address, exactly as on the lazy path.
			out[PageURL(h.Name, idx)] = w.renderPage(h, idx, false)
		}
	}
	return out
}

// The bench suite needs a ~1M-page universe; ScaledConfig(seed, 36)
// provides one while only host metadata is materialized.
func TestScaledConfigReachesMillionPages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 25k hosts of metadata")
	}
	cfg := ScaledConfig(1, 36)
	if cfg.NumHosts != 36*DefaultConfig().NumHosts {
		t.Fatalf("ScaledConfig hosts = %d, want %d", cfg.NumHosts, 36*DefaultConfig().NumHosts)
	}
	web := buildWeb(cfg)
	if total := totalPages(web); total < 900_000 {
		t.Errorf("scaled web holds %d pages, want >= 900000 (~1M)", total)
	}
}

func TestScaledConfigClampsFactor(t *testing.T) {
	if got := ScaledConfig(1, 0).NumHosts; got != DefaultConfig().NumHosts {
		t.Errorf("factor 0 yielded %d hosts, want the default", got)
	}
}

// equivalenceGrid is the seed/config matrix the lazy-vs-precomputed
// comparison runs over: clean webs, a chaos-faulted web, and a
// mirror-heavy web, across seeds. The webs are small: the comparison
// walks every page, and TestRenderGolden pins the full 700-host web's
// bytes.
func equivalenceGrid() map[string]Config {
	const hosts = 12
	grid := map[string]Config{}
	for _, seed := range []uint64{1, 7, 1234} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumHosts = hosts
		grid[fmt.Sprintf("clean/seed=%d", seed)] = cfg
	}
	faulted := DefaultConfig()
	faulted.Seed = 5
	faulted.NumHosts = hosts
	faulted.FailureRate = 0.3
	faulted.DeadHostShare = 0.1
	faulted.SlowHostShare = 0.2
	faulted.RateLimitShare = 0.2
	faulted.TruncateRate = 0.05
	grid["faulted/seed=5"] = faulted
	mirrors := DefaultConfig()
	mirrors.Seed = 9
	mirrors.NumHosts = hosts
	mirrors.MirrorShare = 0.3
	grid["mirrors/seed=9"] = mirrors
	return grid
}

// The satellite property: materializing the whole universe up front and
// rendering pages lazily on demand serve byte-identical pages — across
// seeds, with and without faults. Two webs are built independently from
// the same config so the comparison also proves two-run identity.
func TestLazyMaterializedEquivalence(t *testing.T) {
	for name, cfg := range equivalenceGrid() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			eager := materialize(buildWeb(cfg))
			lazy := buildWeb(cfg)

			if want, got := totalPages(lazy), len(eager); want != got {
				t.Fatalf("materialized %d pages, lazy universe holds %d", got, want)
			}
			for _, h := range lazy.Hosts {
				for idx := 0; idx < h.Pages; idx++ {
					url := PageURL(h.Name, idx)
					pre := eager[url]
					if pre == nil {
						t.Fatalf("materialized map missing %s", url)
					}
					live, err := lazy.PageContent(url)
					if err != nil {
						t.Fatalf("lazy render of %s: %v", url, err)
					}
					if !bytes.Equal(pre.Body, live.Body) {
						t.Fatalf("%s: lazy and materialized bodies differ", url)
					}
					if pre.MIME != live.MIME || pre.Lang != live.Lang ||
						pre.Relevant != live.Relevant || pre.Portal != live.Portal ||
						pre.MirrorOf != live.MirrorOf || pre.NetText != live.NetText {
						t.Fatalf("%s: lazy and materialized metadata differ", url)
					}
					if len(pre.Links) != len(live.Links) {
						t.Fatalf("%s: link counts differ: %d vs %d", url, len(pre.Links), len(live.Links))
					}
					for i := range pre.Links {
						if pre.Links[i] != live.Links[i] {
							t.Fatalf("%s: link %d differs: %s vs %s", url, i, pre.Links[i], live.Links[i])
						}
					}
				}
			}
		})
	}
}

// Robots rules and host metadata are part of the universe contract too:
// two webs built from one config must agree on them exactly.
func TestTwoWebsAgreeOnHostsAndRobots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumHosts = 80
	a, b := buildWeb(cfg), buildWeb(cfg)
	if len(a.Hosts) != len(b.Hosts) {
		t.Fatalf("host counts differ: %d vs %d", len(a.Hosts), len(b.Hosts))
	}
	for i, ha := range a.Hosts {
		hb := b.Hosts[i]
		if ha.Name != hb.Name || ha.Biomed != hb.Biomed || ha.Pages != hb.Pages || ha.Trap != hb.Trap {
			t.Fatalf("host %d metadata differs: %+v vs %+v", i, ha, hb)
		}
		ra, oka := a.Robots(ha.Name)
		rb, okb := b.Robots(hb.Name)
		if oka != okb {
			t.Fatalf("robots presence differs for %s", ha.Name)
		}
		if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
			t.Fatalf("robots rules differ for %s: %+v vs %+v", ha.Name, ra, rb)
		}
	}
}

// The MIME/language noise shares stay calibrated when the universe is
// built: measured rates land near the configured §4.1 shares.
func TestNoiseRatesMatchConfiguredShares(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumHosts = 300
	web := buildWeb(cfg)

	pages, nonHTML, nonEnglish := 0, 0, 0
	for _, h := range web.Hosts {
		for idx := 0; idx < h.Pages; idx++ {
			p, err := web.PageContent(PageURL(h.Name, idx))
			if err != nil {
				t.Fatal(err)
			}
			pages++
			if p.MIME != mimetype.HTML {
				nonHTML++
			} else if p.Lang != "en" {
				nonEnglish++
			}
		}
	}
	checkRate := func(name string, hits int, want float64) {
		got := float64(hits) / float64(pages)
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("%s rate = %.3f over %d pages, want within 30%% of %.3f", name, got, pages, want)
		}
	}
	checkRate("non-HTML", nonHTML, cfg.NonHTMLShare)
	// Non-English noise applies to the HTML population.
	checkRate("non-English", nonEnglish, cfg.NonEnglishShare*(1-cfg.NonHTMLShare))

	traps := 0
	for _, h := range web.Hosts {
		if h.Trap {
			traps++
		}
	}
	trapRate := float64(traps) / float64(len(web.Hosts))
	if trapRate < cfg.TrapShare*0.4 || trapRate > cfg.TrapShare*2.0 {
		t.Errorf("trap host rate = %.3f, want near %.3f", trapRate, cfg.TrapShare)
	}
}

// Fault outcomes are part of the pure (config, URL, attempt) contract:
// two identically-configured webs inject the same failures at the same
// attempts, which is what lets sharded crawls give every shard a private
// web instance without changing what any fetch observes.
func TestFaultOutcomesAgreeAcrossInstances(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.NumHosts = 40
	cfg.FailureRate = 0.3
	cfg.DeadHostShare = 0.15
	cfg.SlowHostShare = 0.2
	cfg.RateLimitShare = 0.25
	cfg.TruncateRate = 0.1
	a, b := buildWeb(cfg), buildWeb(cfg)

	sawFailure := false
	for _, h := range a.Hosts {
		fa, fb := a.HostFaults(h.Name), b.HostFaults(h.Name)
		if fa != fb {
			t.Fatalf("host %s fault profiles differ: %+v vs %+v", h.Name, fa, fb)
		}
		for idx := 0; idx < h.Pages; idx += 1 + h.Pages/5 {
			url := PageURL(h.Name, idx)
			for attempt := 1; attempt <= 4; attempt++ {
				pa, ia, ea := a.FetchAttempt(url, attempt)
				pb, ib, eb := b.FetchAttempt(url, attempt)
				if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
					t.Fatalf("%s attempt %d: errors differ: %v vs %v", url, attempt, ea, eb)
				}
				if ia != ib {
					t.Fatalf("%s attempt %d: fetch info differs: %+v vs %+v", url, attempt, ia, ib)
				}
				if (pa == nil) != (pb == nil) || (pa != nil && !bytes.Equal(pa.Body, pb.Body)) {
					t.Fatalf("%s attempt %d: bodies differ", url, attempt)
				}
				if ea != nil {
					sawFailure = true
				}
			}
		}
	}
	if !sawFailure {
		t.Error("fault config injected no failures across the sample — rates not engaged")
	}
}
