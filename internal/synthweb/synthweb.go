// Package synthweb is the substitute for the live web: a deterministic,
// procedurally generated universe of hosts and pages that exhibits the
// properties the paper's crawling study depends on:
//
//   - topical locality ("relevant pages are most likely linked to other
//     relevant pages", §2) with biomedical sites being "only weakly linked;
//     most often, all outgoing links from a page were navigational leading
//     to pages on the same host" (§2.2);
//   - portal front pages that are authoritative but content-poor, so a
//     relevance classifier kills the crawl branch immediately (§2.2);
//   - heavily cluttered HTML (navigation, ads, footers) with malformed
//     markup on most pages (§5 cites 95% non-conforming pages);
//   - MIME-type, language, and length noise at rates calibrated to the
//     paper's filter statistics (9.5% / 14% / 17% document reductions, §4.1);
//   - spider traps (infinite dynamically-generated link chains, §2.1);
//   - robots.txt politeness rules.
//
// Every page is a pure function of (config seed, URL): fetching the same
// URL twice yields identical bytes, making whole-crawl experiments exactly
// repeatable — the one thing the paper says is impossible on the real web.
package synthweb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"webtextie/internal/mimetype"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// Config controls the shape of the synthetic web.
type Config struct {
	// Seed drives all generation.
	Seed uint64
	// NumHosts is the number of registered hosts.
	NumHosts int
	// NonEnglishShare calibrates the non-English noise the crawler's
	// language filter must remove (§4.1: 14%).
	NonEnglishShare float64
	// CorruptShare is the fraction of pages with malformed markup.
	CorruptShare float64
	// OffTopicShareOnBiomed is the fraction of pages on biomedical hosts
	// that are nonetheless off-topic (biomedShareOnGeneral is the reverse).
	OffTopicShareOnBiomed float64
	// DepthDecay models the paper's central temporal pitfall: relevant-page
	// density on biomedical hosts holds through the front band (the first
	// 8 pages — the curated hubs a crawl enters through), then decays with
	// page index (the off-topic share rises hyperbolically with
	// DepthDecay*(idx-8)), and intra-host navigation becomes
	// forward-biased — deep pages link deeper — so a crawl's harvest rate
	// falls as it digs in. 0 (the default) keeps density uniform and
	// preserves the exact RNG draw sequence of pre-decay webs.
	DepthDecay float64
	// FailureRate injects transient fetch failures (timeouts, 5xx): the
	// given fraction of URLs is flaky and fails its first k fetch attempts
	// with ErrFetchFailed before succeeding (k is drawn per URL in
	// [1, 3]). The failure decision is a pure function of (config, URL,
	// attempt), so a retrying crawler deterministically recovers every
	// flaky URL while a retry-free crawler sees the same permanent per-URL
	// failures this knob used to inject.
	FailureRate float64
	// DeadHostShare is the fraction of hosts that are persistently down:
	// every fetch attempt against them returns ErrHostDown, forever.
	DeadHostShare float64
	// SlowHostShare is the fraction of hosts serving with a latency spike
	// of 2000 virtual milliseconds per fetch.
	SlowHostShare float64
	// RateLimitShare is the fraction of hosts that throttle: the first one
	// or two attempts of each URL fail with ErrRateLimited carrying a
	// deterministic retry-after of 1500 virtual milliseconds.
	RateLimitShare float64
	// TruncateRate is the per-(URL, attempt) probability of a truncated
	// body: the fetch returns ErrTruncated together with the partial page.
	// Truncation is transient — a retry re-reads the full body.
	TruncateRate float64
	// MirrorShare is the fraction of pages that are near-copies of another
	// page on the same host (mirrors/syndication — the web "redundancy" of
	// §1). Mirrors differ from their source only by chrome and a trailing
	// notice, so exact-hash deduplication misses them.
	MirrorShare float64
}

// DefaultConfig returns the calibrated default web.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		NumHosts:              700,
		NonEnglishShare:       0.14,
		CorruptShare:          0.60,
		MirrorShare:           0.05,
		OffTopicShareOnBiomed: 0.70,
	}
}

// The web's calibrated shape, which no configuration varies.
const (
	// biomedShare is the fraction of hosts carrying biomedical content.
	biomedShare = 0.28
	// pagesPerHostMu and pagesPerHostSigma are the log-normal distribution
	// of host sizes.
	pagesPerHostMu, pagesPerHostSigma = 3.3, 0.8
	// trapShare is the fraction of hosts containing a spider trap.
	trapShare = 0.03
	// nonHTMLShare and tooShortShare calibrate the noise the crawler's
	// pre-filters must remove (§4.1: 9.5% and 17%; NonEnglishShare is the
	// 14%).
	nonHTMLShare  = 0.095
	tooShortShare = 0.17
	// intraHostLinkShare is the fraction of links staying on the same host
	// (high: biomedical sites are weakly linked externally).
	intraHostLinkShare = 0.90
	// topicalLocality is the probability that a cross-host link from a
	// biomedical page targets another biomedical host.
	topicalLocality = 0.75
	// biomedShareOnGeneral is the fraction of pages on general hosts that
	// are nonetheless biomedical ("blogger.com often also contain[s] some
	// biomedical material", §4.1).
	biomedShareOnGeneral = 0.02
)

// hubDomains are the named high-authority hosts; they mirror the domains of
// the paper's Table 2 so the PageRank experiment produces a recognizable
// top-30. The first 20 are biomedical, the rest general-purpose hubs.
var hubDomains = []string{
	"nih.gov", "cancer.org", "cancer.net", "biomedcentral.com", "cdc.gov",
	"healthline.com", "bettermedicine.com", "rightdiagnosis.com",
	"ourhealth.com", "sideeffects.embl.de", "mypacs.net", "g2conline.org",
	"hhs.gov", "blogs.nature.com", "arxiv.org", "mpg.org", "farlex.com",
	"thefreedictionary.com", "definition-of.com", "lexiophiles.com",
	"wikipedia.org", "wikimedia.org", "blogger.com", "wordpress.org",
	"slideshare.net", "disqus.com", "reuters.com", "about.com",
	"statcounter.com", "omniture.com",
}

// numBiomedHubs is how many of hubDomains carry biomedical content.
const numBiomedHubs = 20

// Host is one registered site.
type Host struct {
	// Name is the domain name.
	Name string
	// Biomed marks hosts whose content is predominantly biomedical.
	Biomed bool
	// Pages is the number of regular pages (indexes 0..Pages-1; index 0 is
	// the portal front page).
	Pages int
	// Trap marks hosts with an infinite /trap/ URL space.
	Trap bool
	// Hub marks high-authority hosts that attract cross-host links.
	Hub bool
	// DisallowTrap reports whether robots.txt forbids the trap subtree.
	DisallowTrap bool
	// CrawlDelayMs is the politeness delay requested via robots.txt.
	CrawlDelayMs int
}

// Page is one fetched document with its generation ground truth.
type Page struct {
	// URL is the canonical page URL.
	URL string
	// Host is the owning host.
	Host *Host
	// MIME is the true content type.
	MIME mimetype.Type
	// Lang is the true language code ("en", "de", ...).
	Lang string
	// Relevant is the gold topical label (biomedical or not).
	Relevant bool
	// MirrorOf names the page this one near-duplicates ("" for originals).
	MirrorOf string
	// Portal marks content-poor front/hub pages.
	Portal bool
	// Body is the raw served bytes (HTML for HTML pages).
	Body []byte
	// NetText is the gold main text (empty for non-HTML pages).
	NetText string
	// Doc is the gold annotated document behind NetText (nil for noise
	// pages): its text, sentence spans, mentions and relations. A served
	// page's document carries no tokens (Sentences is nil).
	Doc *textgen.Doc
	// Links are the out-links as absolute URLs (both those rendered into
	// the HTML and, equal to them, the gold link set). A page's entries
	// share one backing string: holding any one of them keeps all of
	// them alive.
	Links []string
}

// Web is the synthetic web universe.
type Web struct {
	cfg    Config
	Hosts  []*Host
	byName map[string]*Host
	gen    *textgen.Generator
}

// ErrNotFound is returned for URLs outside the universe.
var ErrNotFound = errors.New("synthweb: no such page")

// New builds the web universe. Host metadata is materialized eagerly; page
// bodies are rendered lazily and deterministically per URL.
func New(cfg Config, gen *textgen.Generator) *Web {
	w := &Web{cfg: cfg, byName: map[string]*Host{}, gen: gen}
	r := rng.New(cfg.Seed).Split("hosts")
	for i := 0; i < cfg.NumHosts; i++ {
		h := &Host{}
		if i < len(hubDomains) {
			h.Name = hubDomains[i]
			h.Hub = true
			h.Biomed = i < numBiomedHubs
			h.Pages = 80 + r.Intn(200)
		} else {
			h.Biomed = r.Bool(biomedShare)
			h.Name = makeHostName(r, h.Biomed, i)
			h.Pages = int(r.LogNorm(pagesPerHostMu, pagesPerHostSigma)) + 2
		}
		h.Trap = r.Bool(trapShare)
		h.DisallowTrap = h.Trap && r.Bool(0.5)
		h.CrawlDelayMs = 100 + r.Intn(400)
		if _, dup := w.byName[h.Name]; dup {
			continue
		}
		w.Hosts = append(w.Hosts, h)
		w.byName[h.Name] = h
	}
	return w
}

var bioHostWords = []string{
	"med", "health", "bio", "gene", "onco", "clinic", "pharma", "patient",
	"cancer", "disease", "drug", "lab", "care", "therapy",
}
var genHostWords = []string{
	"shop", "news", "blog", "travel", "sport", "game", "forum", "photo",
	"music", "deal", "auto", "home", "food", "tech",
}
var hostTLDs = []string{".com", ".org", ".net", ".info", ".co.uk", ".de"}

func makeHostName(r *rng.RNG, biomed bool, i int) string {
	pool := genHostWords
	if biomed {
		pool = bioHostWords
	}
	return fmt.Sprintf("%s%s%d%s", rng.Pick(r, pool), rng.Pick(r, pool), i, rng.Pick(r, hostTLDs))
}

// HostByName returns a host by domain name.
func (w *Web) HostByName(name string) (*Host, bool) {
	h, ok := w.byName[name]
	return h, ok
}

// PageURL builds the canonical URL for a host page index.
func PageURL(host string, index int) string {
	return string(appendPageURL(make([]byte, 0, 64), host, index))
}

// appendPageURL appends PageURL(host, index) to b.
func appendPageURL(b []byte, host string, index int) []byte {
	b = append(append(append(b, "http://"...), host...), "/p"...)
	return append(strconv.AppendInt(b, int64(index), 10), ".html"...)
}

// TrapURL builds a trap URL at the given depth.
func TrapURL(host string, depth int) string {
	return "http://" + host + "/trap/" + strconv.Itoa(depth)
}

// SplitURL parses a synthetic URL into host and path.
func SplitURL(rawurl string) (host, path string, err error) {
	rest, ok := strings.CutPrefix(rawurl, "http://")
	if !ok {
		if rest, ok = strings.CutPrefix(rawurl, "https://"); !ok {
			return "", "", fmt.Errorf("synthweb: unsupported URL %q", rawurl)
		}
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return rest, "/", nil
	}
	return rest[:slash], rest[slash:], nil
}

// Robots describes a host's robots.txt policy.
type Robots struct {
	// Disallow lists path prefixes the crawler must not fetch.
	Disallow []string
	// CrawlDelayMs is the requested inter-request delay.
	CrawlDelayMs int
}

// Allowed reports whether a path may be fetched.
func (r Robots) Allowed(path string) bool {
	for _, p := range r.Disallow {
		if strings.HasPrefix(path, p) {
			return false
		}
	}
	return true
}

// Robots returns the robots policy of a host.
func (w *Web) Robots(host string) (Robots, bool) {
	h, ok := w.byName[host]
	if !ok {
		return Robots{}, false
	}
	rb := Robots{CrawlDelayMs: h.CrawlDelayMs}
	if h.DisallowTrap {
		rb.Disallow = append(rb.Disallow, "/trap/")
	}
	return rb, true
}

// Fetch serves a URL as the first attempt (attempt 0). The result is a
// pure function of (config, URL): callers that never retry see exactly
// the failure set FetchAttempt injects at attempt 0.
func (w *Web) Fetch(rawurl string) (*Page, error) {
	page, _, err := w.FetchAttempt(rawurl, 0)
	return page, err
}

// page maps a URL to its rendered page without fault injection; the
// page's gold document carries its tokens only if tokens is set.
func (w *Web) page(rawurl string, tokens bool) (*Page, error) {
	host, path, err := SplitURL(rawurl)
	if err != nil {
		return nil, err
	}
	h, ok := w.byName[host]
	if !ok {
		return nil, ErrNotFound
	}
	if rest, ok := strings.CutPrefix(path, "/trap/"); ok {
		if !h.Trap {
			return nil, ErrNotFound
		}
		depth, err := strconv.Atoi(rest)
		if err != nil || depth < 0 {
			return nil, ErrNotFound
		}
		return w.renderTrapPage(h, depth), nil
	}
	var idx int
	if path == "/" || path == "" {
		idx = 0
	} else {
		mid, ok := strings.CutPrefix(path, "/p")
		if !ok {
			return nil, ErrNotFound
		}
		mid, _ = strings.CutSuffix(mid, ".html")
		idx, err = strconv.Atoi(mid)
		if err != nil || idx < 0 || idx >= h.Pages {
			return nil, ErrNotFound
		}
	}
	return w.renderPage(h, idx, tokens), nil
}

// PageContent renders a URL's true page, bypassing fault injection and
// the fetch counter — the accessor checkpoint restore and ground-truth
// tooling use to rebuild corpora without perturbing crawl accounting.
func (w *Web) PageContent(rawurl string) (*Page, error) {
	return w.page(rawurl, false)
}

// pageRNG derives the deterministic generator for one page, the stream
// keyed "page/<host>/<idx>", by value.
func (w *Web) pageRNG(h *Host, idx int) rng.RNG {
	return rng.Keyed(w.cfg.Seed, "page/", h.Name, "/", string(strconv.AppendInt(make([]byte, 0, 20), int64(idx), 10)))
}
