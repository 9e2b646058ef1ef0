package synthweb

import (
	"strings"
	"testing"

	"webtextie/internal/boiler"
	"webtextie/internal/langid"
	"webtextie/internal/mimetype"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

func testWeb(t testing.TB) *Web {
	t.Helper()
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 120, Diseases: 120}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	cfg := DefaultConfig()
	cfg.NumHosts = 120
	return New(cfg, gen)
}

func TestHostsCreated(t *testing.T) {
	w := testWeb(t)
	if len(w.Hosts) < 100 {
		t.Fatalf("only %d hosts", len(w.Hosts))
	}
	biomed := 0
	for _, h := range w.Hosts {
		if h.Biomed {
			biomed++
		}
		if h.Pages < 2 {
			t.Errorf("host %s has %d pages", h.Name, h.Pages)
		}
	}
	share := float64(biomed) / float64(len(w.Hosts))
	if share < 0.2 || share > 0.55 {
		t.Errorf("biomed share = %.2f", share)
	}
}

func TestHubDomainsPresent(t *testing.T) {
	w := testWeb(t)
	for _, d := range []string{"nih.gov", "wikipedia.org", "cancer.org"} {
		h, ok := w.HostByName(d)
		if !ok {
			t.Fatalf("hub %s missing", d)
		}
		if !h.Hub {
			t.Errorf("%s not marked hub", d)
		}
	}
	if h, _ := w.HostByName("nih.gov"); !h.Biomed {
		t.Error("nih.gov should be biomedical")
	}
	if h, _ := w.HostByName("statcounter.com"); h.Biomed {
		t.Error("statcounter.com should not be biomedical")
	}
}

func TestFetchDeterministic(t *testing.T) {
	w := testWeb(t)
	u := PageURL(w.Hosts[5].Name, 1)
	p1, err := w.Fetch(u)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := w.Fetch(u)
	if string(p1.Body) != string(p2.Body) || p1.Relevant != p2.Relevant {
		t.Fatal("Fetch is not deterministic")
	}
	// A second, independently-built web must agree too.
	w2 := testWeb(t)
	p3, _ := w2.Fetch(u)
	if string(p1.Body) != string(p3.Body) {
		t.Fatal("Fetch differs across identically-configured webs")
	}
}

func TestFetchUnknown(t *testing.T) {
	w := testWeb(t)
	if _, err := w.Fetch("http://no-such-host.example/p0.html"); err == nil {
		t.Error("unknown host fetched")
	}
	if _, err := w.Fetch(PageURL(w.Hosts[0].Name, 999999)); err == nil {
		t.Error("out-of-range page fetched")
	}
	if _, err := w.Fetch("ftp://bad.scheme/x"); err == nil {
		t.Error("bad scheme fetched")
	}
}

func TestSplitURL(t *testing.T) {
	h, p, err := SplitURL("http://a.com/p3.html")
	if err != nil || h != "a.com" || p != "/p3.html" {
		t.Errorf("SplitURL = %q %q %v", h, p, err)
	}
	h, p, err = SplitURL("https://b.org")
	if err != nil || h != "b.org" || p != "/" {
		t.Errorf("SplitURL bare host = %q %q %v", h, p, err)
	}
}

func TestFrontPageIsPortal(t *testing.T) {
	w := testWeb(t)
	var biomedHost *Host
	for _, h := range w.Hosts {
		if h.Biomed && !h.Hub {
			biomedHost = h
			break
		}
	}
	p, err := w.Fetch(PageURL(biomedHost.Name, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Portal {
		t.Error("page 0 should be a portal")
	}
	if p.Relevant {
		t.Error("portal pages must be gold-irrelevant (§2.2 front-page problem)")
	}
	if len(p.Links) < 10 {
		t.Errorf("portal has only %d links", len(p.Links))
	}
}

func TestPageHTMLContainsNetTextAndChrome(t *testing.T) {
	w := testWeb(t)
	found := false
	for _, h := range w.Hosts {
		if !h.Biomed || h.Hub {
			continue
		}
		for i := 1; i < h.Pages && !found; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil {
				t.Fatal(err)
			}
			if p.MIME != mimetype.HTML || p.Lang != "en" || !p.Relevant {
				continue
			}
			found = true
			body := string(p.Body)
			// A slice of the net text must appear (escaped) in the body.
			probe := p.NetText
			if len(probe) > 40 {
				probe = probe[:40]
			}
			if !strings.Contains(body, string(appendEscaped(nil, probe))) {
				t.Errorf("net text not in body:\nprobe=%q", probe)
			}
			if !strings.Contains(body, "<nav") || !strings.Contains(body, "<footer>") {
				t.Error("page missing chrome")
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no relevant English HTML page found")
	}
}

func TestNoiseRatesRoughlyCalibrated(t *testing.T) {
	w := testWeb(t)
	var nonHTML, nonEnglish, total int
	for _, h := range w.Hosts[:60] {
		for i := 1; i < h.Pages && i < 30; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil {
				t.Fatal(err)
			}
			total++
			if !p.MIME.IsTextual() {
				nonHTML++
			} else if p.Lang != "en" {
				nonEnglish++
			}
		}
	}
	if total < 300 {
		t.Fatalf("sample too small: %d", total)
	}
	fHTML := float64(nonHTML) / float64(total)
	fLang := float64(nonEnglish) / float64(total)
	if fHTML < 0.04 || fHTML > 0.16 {
		t.Errorf("non-HTML share = %.3f, want ~0.095", fHTML)
	}
	if fLang < 0.06 || fLang > 0.20 {
		t.Errorf("non-English share = %.3f, want ~0.14", fLang)
	}
}

func TestNonEnglishDetectable(t *testing.T) {
	w := testWeb(t)
	id := langid.New()
	checked := 0
	for _, h := range w.Hosts {
		for i := 1; i < h.Pages && checked < 10; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil || p.Lang == "en" || !p.MIME.IsTextual() {
				continue
			}
			checked++
			if id.IsEnglish(p.NetText) {
				t.Errorf("non-English page (%s) passed the English filter: %.60s",
					p.Lang, p.NetText)
			}
		}
	}
	if checked == 0 {
		t.Skip("no non-English pages in sample")
	}
}

func TestBoilerplateRecoverable(t *testing.T) {
	// The gold net text must be recoverable from the cluttered HTML with
	// reasonable precision/recall, as in §4.1.
	w := testWeb(t)
	c := boiler.Default()
	var sumP, sumR float64
	n := 0
	for _, h := range w.Hosts {
		if h.Hub {
			continue
		}
		for i := 1; i < h.Pages && n < 60; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil || p.MIME != mimetype.HTML || p.Lang != "en" || len(p.NetText) < 400 {
				continue
			}
			res := c.Extract(string(p.Body))
			pr, rc := boiler.WordOverlapPR(res.NetText, p.NetText)
			sumP += pr
			sumR += rc
			n++
		}
	}
	if n < 30 {
		t.Fatalf("only %d pages sampled", n)
	}
	avgP, avgR := sumP/float64(n), sumR/float64(n)
	if avgP < 0.80 {
		t.Errorf("boilerplate precision = %.3f, want >= 0.80 (paper: 0.90-0.98)", avgP)
	}
	if avgR < 0.60 {
		t.Errorf("boilerplate recall = %.3f, want >= 0.60 (paper: 0.72-0.82)", avgR)
	}
}

func TestTrapPagesAreInfinite(t *testing.T) {
	w := testWeb(t)
	var trapHost *Host
	for _, h := range w.Hosts {
		if h.Trap {
			trapHost = h
			break
		}
	}
	if trapHost == nil {
		t.Skip("no trap host in this configuration")
	}
	p, err := w.Fetch(TrapURL(trapHost.Name, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Links) == 0 {
		t.Fatal("trap page has no deeper links")
	}
	deeper, err := w.Fetch(p.Links[0])
	if err != nil {
		t.Fatal(err)
	}
	if deeper.URL == p.URL {
		t.Fatal("trap does not descend")
	}
	// Very deep URLs still resolve: the space is unbounded.
	if _, err := w.Fetch(TrapURL(trapHost.Name, 1000000)); err != nil {
		t.Fatal("deep trap URL failed")
	}
}

func TestRobots(t *testing.T) {
	w := testWeb(t)
	for _, h := range w.Hosts {
		rb, ok := w.Robots(h.Name)
		if !ok {
			t.Fatalf("no robots for %s", h.Name)
		}
		if rb.CrawlDelayMs <= 0 {
			t.Errorf("%s: no crawl delay", h.Name)
		}
		if h.DisallowTrap {
			if rb.Allowed("/trap/5") {
				t.Errorf("%s: disallowed trap path allowed", h.Name)
			}
			if !rb.Allowed("/p1.html") {
				t.Errorf("%s: regular path disallowed", h.Name)
			}
		}
	}
	if _, ok := w.Robots("nope.example"); ok {
		t.Error("robots for unknown host")
	}
}

func TestTopicalLocalityOfLinks(t *testing.T) {
	w := testWeb(t)
	intra, cross, crossBio := 0, 0, 0
	for _, h := range w.Hosts {
		if !h.Biomed || h.Hub {
			continue
		}
		for i := 1; i < h.Pages && i < 10; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil || p.MIME != mimetype.HTML {
				continue
			}
			for _, l := range p.Links {
				lh, _, _ := SplitURL(l)
				if lh == h.Name {
					intra++
					continue
				}
				cross++
				if th, ok := w.HostByName(lh); ok && th.Biomed {
					crossBio++
				}
			}
		}
	}
	if intra+cross == 0 {
		t.Fatal("no links found")
	}
	intraShare := float64(intra) / float64(intra+cross)
	if intraShare < 0.6 {
		t.Errorf("intra-host link share = %.2f, want high (weakly-linked biomedical web)", intraShare)
	}
	if cross > 20 {
		locality := float64(crossBio) / float64(cross)
		if locality < 0.5 {
			t.Errorf("topical locality = %.2f, want > 0.5", locality)
		}
	}
}

func TestMarkupCorruptionPresent(t *testing.T) {
	w := testWeb(t)
	corrupted := 0
	total := 0
	for _, h := range w.Hosts[:40] {
		for i := 1; i < h.Pages && i < 10; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil || p.MIME != mimetype.HTML {
				continue
			}
			total++
			body := string(p.Body)
			if strings.Count(body, "<p>") != strings.Count(body, "</p>") ||
				strings.Count(body, "<div") != strings.Count(body, "</div>") {
				corrupted++
			}
		}
	}
	if total == 0 {
		t.Fatal("no HTML pages sampled")
	}
	share := float64(corrupted) / float64(total)
	if share < 0.3 {
		t.Errorf("corrupted share = %.2f, want ~0.6 ([19]: 95%% of real pages broken)", share)
	}
}

func TestFetchesCounter(t *testing.T) {
	w := testWeb(t)
	before := w.Fetches()
	_, _ = w.Fetch(PageURL(w.Hosts[0].Name, 0))
	if w.Fetches() != before+1 {
		t.Error("fetch counter not incremented")
	}
}

func BenchmarkFetch(b *testing.B) {
	w := testWeb(b)
	urls := make([]string, 0, 100)
	for _, h := range w.Hosts[:20] {
		for i := 0; i < h.Pages && i < 5; i++ {
			urls = append(urls, PageURL(h.Name, i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Fetch(urls[i%len(urls)])
	}
}

func TestMirrorPages(t *testing.T) {
	lexM := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 120, Diseases: 120}, 0.75)
	genM := textgen.NewGenerator(2, lexM, textgen.DefaultProfiles())
	cfg := DefaultConfig()
	cfg.NumHosts = 120
	cfg.MirrorShare = 0.15 // raise for test visibility
	w := New(cfg, genM)

	mirrors := 0
	checked := 0
	for _, h := range w.Hosts {
		for i := 2; i < h.Pages && checked < 400; i++ {
			p, err := w.Fetch(PageURL(h.Name, i))
			if err != nil {
				continue
			}
			checked++
			if p.MirrorOf == "" {
				continue
			}
			mirrors++
			src, err := w.Fetch(p.MirrorOf)
			if err != nil {
				t.Fatalf("mirror source unfetchable: %v", err)
			}
			if !strings.HasPrefix(p.NetText, src.NetText) {
				t.Fatal("mirror net text does not extend its source")
			}
			if p.NetText == src.NetText {
				t.Fatal("mirror is an exact copy; must differ for near-dedup testing")
			}
			if p.Relevant != src.Relevant {
				t.Fatal("mirror relevance differs from source")
			}
		}
	}
	if mirrors == 0 {
		t.Fatal("no mirror pages generated")
	}
}
