package synthweb

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"

	"webtextie/internal/mimetype"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// depthDecayOnset is the page index where DepthDecay begins to bite:
// density is uniform through this front band, hyperbolic beyond it.
const depthDecayOnset = 8

// renderPage materializes a page from its stream: its gold first, then
// the served body (and, for HTML, the links) from the rest of the stream.
// Its gold document carries its tokens only if tokens is set.
func (w *Web) renderPage(h *Host, idx int, tokens bool) *Page {
	r := w.pageRNG(h, idx)
	p := w.gold(&r, h, idx, tokens)
	if !p.MIME.IsTextual() {
		p.Body = binaryBody(&r, p.MIME)
		return p
	}
	p.Links = w.pageLinks(&r, h, idx, p)
	p.Body = w.renderHTML(&r, h, idx, p)
	return p
}

// gold draws a page's ground truth from the head of its stream r: MIME
// class, language, relevance, document and net text.
func (w *Web) gold(r *rng.RNG, h *Host, idx int, tokens bool) *Page {
	p := &Page{URL: PageURL(h.Name, idx), Host: h, Lang: "en", MIME: mimetype.HTML}
	p.Portal = idx == 0 || (h.Hub && idx < 4)

	// Noise classes are decided first; they apply to non-portal pages only
	// (portals are always real HTML hubs).
	if !p.Portal {
		switch {
		case r.Bool(w.cfg.NonHTMLShare):
			k := binaryKinds[r.Intn(len(binaryKinds))]
			p.MIME = k.mime
			if k.ext != "" {
				p.URL = strings.TrimSuffix(p.URL, ".html") + k.ext
			}
			return p
		case r.Bool(w.cfg.NonEnglishShare):
			p.Lang = rng.Pick(r, foreignLangs)
		case idx >= 2 && r.Bool(w.cfg.MirrorShare):
			w.mirrorGold(r, h, idx, p, tokens)
			return p
		}
	}

	// Topical gold label.
	if h.Biomed {
		off := w.cfg.OffTopicShareOnBiomed
		if w.cfg.DepthDecay > 0 && idx > depthDecayOnset {
			// Depth-decaying relevance: density holds through the front
			// band (the curated hub pages a crawl enters through), then
			// deeper pages are increasingly off-topic. Still exactly one
			// Bool draw per page, so the noise and fault draws that
			// follow stay aligned across idx.
			off = 1 - (1-off)/(1+w.cfg.DepthDecay*float64(idx-depthDecayOnset))
		}
		p.Relevant = !r.Bool(off)
	} else {
		p.Relevant = r.Bool(w.cfg.BiomedShareOnGeneral)
	}
	// Portal pages are content-poor: even on biomedical hosts they read as
	// generic link hubs, which is why classifiers reject them (§2.2).
	if p.Portal {
		p.Relevant = false
	}

	// Generate the main document. Portal pages keep a couple of teaser
	// sentences, too-short pages a stub of one.
	if p.Lang != "en" {
		p.NetText = foreignText(r, p.Lang)
		return p
	}
	kind, keep := textgen.Irrelevant, 0
	switch {
	case p.Portal:
		keep = 3
	case r.Bool(w.cfg.TooShortShare):
		keep = 1
	case p.Relevant:
		kind = textgen.Relevant
	}
	p.Doc = w.doc(r, kind, p.URL, tokens)
	if keep > 0 {
		trimToSentences(p.Doc, keep)
	}
	p.NetText = p.Doc.Text
	return p
}

// doc generates a gold document, with its tokens only if tokens is set.
func (w *Web) doc(r *rng.RNG, kind textgen.CorpusKind, id string, tokens bool) *textgen.Doc {
	if tokens {
		return w.gen.Doc(r, kind, id)
	}
	return w.gen.LeanDoc(r, kind, id)
}

// trimToSentences cuts a document to its first n sentences, with the
// mentions and gold relations those sentences carry.
func trimToSentences(d *textgen.Doc, n int) {
	if len(d.SentSpans) <= n {
		return
	}
	if d.Sentences != nil {
		d.Sentences = d.Sentences[:n]
	}
	end := d.SentSpans[n-1][1]
	d.SentSpans = d.SentSpans[:n]
	d.Text = d.Text[:end]
	var ms []textgen.Mention
	for _, m := range d.Mentions {
		if m.End <= end {
			ms = append(ms, m)
		}
	}
	d.Mentions = ms
	d.Relations = slices.DeleteFunc(d.Relations, func(rel textgen.Relation) bool { return rel.Sentence >= n })
}

// mirrorGold makes p a near-copy of an earlier page on the same host:
// the source's net text plus a trailing mirror notice; the render gives
// it fresh chrome. Exact deduplication misses these; MinHash near-dedup
// (internal/dedup) catches them. The source's gold comes from its own
// stream and nothing of it is rendered, so a chain of mirrors recurses
// through the gold step only.
func (w *Web) mirrorGold(r *rng.RNG, h *Host, idx int, p *Page, tokens bool) {
	sr := w.pageRNG(h, idx/2)
	src := w.gold(&sr, h, idx/2, tokens)
	if !src.MIME.IsTextual() || src.Lang != "en" || src.NetText == "" {
		// Unusable source: a regular irrelevant page instead.
		p.Doc = w.doc(r, textgen.Irrelevant, p.URL, tokens)
		p.NetText = p.Doc.Text
		return
	}
	p.MirrorOf = src.URL
	p.Relevant = src.Relevant
	p.Doc = src.Doc
	p.NetText = src.NetText + " This page is a hosted mirror copy of the original article."
}

// binaryKinds are the non-HTML bodies a page can serve (PDF, archive,
// image, or an embedded-slides blob mislabelled as .html — the §5 MIME
// war story): the true type, the body's magic prefix and the URL
// extension replacing .html ("" keeps it).
var binaryKinds = [...]struct {
	mime       mimetype.Type
	magic, ext string
}{
	{mimetype.PDF, "%PDF-1.4\n", ".pdf"},
	{mimetype.Zip, "PK\x03\x04", ""},
	{mimetype.PNG, "\x89PNG\r\n\x1a\n", ".png"},
	// The nasty case: binary office document served under .html.
	{mimetype.MSWord, "\xd0\xcf\x11\xe0", ""},
}

// binaryBody draws a binary page's served bytes: random content behind
// its type's magic prefix.
func binaryBody(r *rng.RNG, mime mimetype.Type) []byte {
	body := make([]byte, 2048+r.Intn(8192))
	for i := range body {
		body[i] = byte(r.Intn(256))
	}
	for _, k := range binaryKinds {
		if k.mime == mime {
			copy(body, k.magic)
		}
	}
	return body
}

// foreignLangs are the languages of non-English pages.
var foreignLangs = []string{"de", "fr", "es", "nl"}

// foreignText produces non-English filler from per-language function-word
// pools — enough signal for the n-gram identifier to reject it.
var foreignPools = map[string][]string{
	"de": strings.Fields(`der die das und ist nicht ein eine mit von auf für
		werden wurde sind haben nach durch über zwischen patienten studie
		behandlung ergebnisse zeigten deutliche gruppe wirkung dosis jahre`),
	"fr": strings.Fields(`le la les de des et est dans pour avec sur une un
		pas par plus sont ont été patients étude traitement résultats montré
		réduction significative groupe dose pendant phase années santé`),
	"es": strings.Fields(`el la los las de que y en es un una con por para
		no se del al pacientes estudio tratamiento resultados mostraron
		reducción significativa grupo dosis durante fase años salud`),
	"nl": strings.Fields(`de het een en van in is dat op te zijn met voor
		niet aan er om ook patiënten studie behandeling resultaten toonden
		significante vermindering groep dosis tijdens fase jaren`),
}

func foreignText(r *rng.RNG, lang string) string {
	pool := foreignPools[lang]
	n := 80 + r.Intn(200)
	words := make([]string, n)
	for i := range words {
		words[i] = rng.Pick(r, pool)
		if i > 0 && i%12 == 0 {
			words[i-1] += "."
		}
	}
	return strings.Join(words, " ")
}

// linkPool holds pageLinks' scratch, in which a page's out-links are
// appended end to end.
var linkPool = sync.Pool{New: func() any { return new([]byte) }}

// pageLinks computes the out-link set of a page: navigational intra-host
// links plus a few cross-host content links with topical locality. Each
// candidate is appended into pooled scratch and dropped again if it is
// the page itself or a link already kept; the kept links are cut from
// one string.
func (w *Web) pageLinks(r *rng.RNG, h *Host, idx int, p *Page) []string {
	nLinks := 4 + r.Intn(12)
	if p.Portal {
		nLinks = 15 + r.Intn(30) // hubs are link farms
	}
	scratch := linkPool.Get().(*[]byte)
	buf := (*scratch)[:0]
	// ends[i] is where the i-th kept link ends in buf. At most 45 links:
	// the ends fit on the stack, and de-duplicating by scanning beats
	// hashing. add takes buf with one candidate appended.
	ends := make([]int, 0, 45)
	add := func(grown []byte) {
		u, prev := grown[len(buf):], 0
		dup := string(u) == p.URL
		for _, end := range ends {
			dup = dup || string(buf[prev:end]) == string(u)
			prev = end
		}
		if !dup {
			buf = grown
			ends = append(ends, len(buf))
		}
	}
	for i := 0; i < nLinks; i++ {
		host, ti := h.Name, 0
		if r.Bool(w.cfg.IntraHostLinkShare) {
			// Navigational or same-host content link.
			ti = r.Intn(h.Pages)
			if w.cfg.DepthDecay > 0 && idx+1 < h.Pages {
				// Forward-biased navigation: link a small window ahead,
				// so the frontier marches from the dense shallow pages
				// into the sparse tail over crawl rounds.
				window := h.Pages - idx - 1
				if window > 6 {
					window = 6
				}
				ti = idx + 1 + r.Intn(window)
			}
		} else {
			// Cross-host link with topical locality. Most cross-host
			// links point at site front pages (people link to
			// homepages); since front pages are content-poor portals the
			// classifier rejects, these chains die after one hop — the
			// §2.2 weak-linking effect.
			target := w.chooseTargetHost(r, h)
			if target == nil {
				continue
			}
			host = target.Name
			if r.Bool(0.05) && target.Pages > 1 {
				ti = r.Intn(target.Pages)
			}
		}
		add(appendPageURL(buf, host, ti))
	}
	// Trap entrance: a dynamically generated calendar-style link.
	if h.Trap && r.Bool(0.3) {
		add(append(buf, TrapURL(h.Name, 0)...))
	}
	all, links, prev := string(buf), make([]string, len(ends)), 0
	for i, end := range ends {
		links[i], prev = all[prev:end], end
	}
	*scratch = buf
	linkPool.Put(scratch)
	return links
}

// chooseTargetHost picks a cross-host link target, respecting topical
// locality and hub preference.
func (w *Web) chooseTargetHost(r *rng.RNG, from *Host) *Host {
	wantBiomed := from.Biomed
	if from.Biomed && !r.Bool(w.cfg.TopicalLocality) {
		wantBiomed = false
	} else if !from.Biomed {
		// General hosts rarely link into the biomedical web: the paper's
		// crawl found biomedical sites weakly linked from outside.
		wantBiomed = r.Bool(0.05)
	}
	// Hubs receive a disproportionate share of links (power-law in-degree).
	for tries := 0; tries < 20; tries++ {
		var h *Host
		if r.Bool(0.4) {
			h = w.Hosts[r.Intn(min(len(hubDomains), len(w.Hosts)))]
		} else {
			h = w.Hosts[r.Intn(len(w.Hosts))]
		}
		if h != from && h.Biomed == wantBiomed {
			return h
		}
	}
	return nil
}

// renderTrapPage produces one page of the infinite trap subtree.
func (w *Web) renderTrapPage(h *Host, depth int) *Page {
	p := &Page{URL: TrapURL(h.Name, depth), Host: h, MIME: mimetype.HTML, Lang: "en"}
	p.NetText = "calendar view " + strconv.Itoa(depth)
	// Each trap page links deeper: unbounded unique URLs.
	p.Links = []string{TrapURL(h.Name, depth+1), TrapURL(h.Name, depth+2)}
	b := cat(nil, "<html><head><title>Calendar</title></head><body><p>", p.NetText, "</p>")
	for _, l := range p.Links {
		b = cat(b, `<a href="`, l, `">next</a> `)
	}
	p.Body = cat(b, "</body></html>")
	return p
}

// navLabels and boilerplate fragments for page chrome.
var navLabels = []string{"Home", "About", "Contact", "News", "Archive", "Search", "Login", "Sitemap"}
var adPhrases = []string{
	"Buy now best price online limited offer today only",
	"Subscribe to our newsletter for weekly updates and deals",
	"Download our free app for exclusive member benefits",
	"Click here to win amazing prizes in our daily draw",
}
var footerPhrases = []string{
	"Copyright 2016 All rights reserved", "Privacy Policy", "Terms of Use",
	"Powered by SiteEngine", "RSS Feed",
}

// renderHTML assembles the served HTML: head with script/style noise, nav
// chrome, the article (the gold net text), sidebar ads, footer — then
// optional markup corruption. The page is appended into one byte slice,
// sized up front for the chrome, the links and the escaped net text; the
// page owns it.
func (w *Web) renderHTML(r *rng.RNG, h *Host, idx int, p *Page) []byte {
	// The fixed chrome and the host name, named eight times; the net text
	// plus an eighth for entities and list and table markup; each link
	// with its markup. Fewer than 0.2% of default-web pages outgrow it.
	size := 640 + 8*len(h.Name) + len(p.NetText) + len(p.NetText)/8
	for _, l := range p.Links {
		size += len(l) + 40
	}
	b := make([]byte, 0, size)
	b = cat(b, "<!DOCTYPE html>\n<html><head><title>", h.Name, " - page ")
	b = strconv.AppendInt(b, int64(idx), 10)
	b = cat(b, `</title><style>.nav{color:#333}</style><script>var _tr=1;track("`, h.Name, `");</script>`)
	b = cat(b, "</head><body>")

	// Navigation bar: link-dense chrome.
	b = cat(b, `<nav class="nav">`)
	for i, l := range p.Links {
		if i >= 8 {
			break
		}
		b = cat(b, `<a href="`, l, `">`, navLabels[i%len(navLabels)], "</a> ")
	}
	b = cat(b, "</nav>")

	// Article: paragraphs of the gold net text. A fraction of paragraphs
	// renders as lists or tables — the content class boilerplate detection
	// systematically drops ("tables and lists, which often contain
	// valuable facts, are not recognized properly in many cases", §4.1).
	b = cat(b, `<article>`)
	for _, para := range paragraphs(r, p) {
		switch {
		case r.Bool(0.08):
			b = cat(appendItems(cat(b, "<ul>"), para, "<li>", "</li>"), "</ul>\n")
		case r.Bool(0.06):
			b = cat(appendItems(cat(b, "<table>"), para, "<tr><td>", "</td></tr>"), "</table>\n")
		default:
			b = cat(appendEscaped(cat(b, "<p>"), para), "</p>\n")
		}
	}
	b = cat(b, "</article>")

	// Sidebar with remaining links and an ad block.
	b = cat(b, `<div class="sidebar"><ul>`)
	for i := 8; i < len(p.Links); i++ {
		b = strconv.AppendInt(cat(b, `<li><a href="`, p.Links[i], `">related link `), int64(i), 10)
		b = cat(b, "</a></li>")
	}
	b = strconv.AppendInt(cat(b, "</ul>", `<div class="ad"><a href="http://ads.example/c`), int64(r.Intn(1000)), 10)
	b = cat(b, `">`, rng.Pick(r, adPhrases), "</a></div></div>")

	// Footer chrome.
	b = cat(b, "<footer>")
	for _, f := range footerPhrases {
		b = cat(b, `<a href="http://`, h.Name, `/meta">`, f, "</a> | ")
	}
	b = cat(b, "</footer></body></html>")

	if r.Bool(w.cfg.CorruptShare) {
		b = corrupt(r, b)
	}
	return b
}

// cat appends strings to b.
func cat(b []byte, parts ...string) []byte {
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

// paragraphs splits the net text into paragraph strings along sentence
// boundaries (3-6 sentences per paragraph).
func paragraphs(r *rng.RNG, p *Page) []string {
	if p.Doc == nil {
		if p.NetText == "" {
			return nil
		}
		return []string{p.NetText}
	}
	spans := p.Doc.SentSpans
	out := make([]string, 0, len(spans)/3+2)
	for i := 0; i < len(spans); {
		n := 3 + r.Intn(4)
		j := i + n
		if j > len(spans) {
			j = len(spans)
		}
		out = append(out, p.Doc.Text[spans[i][0]:spans[j-1][1]])
		i = j
	}
	// Mirror pages carry extra text beyond the source document (the
	// trailing notice); keep NetText authoritative.
	if len(p.NetText) > len(p.Doc.Text) {
		out = append(out, p.NetText[len(p.Doc.Text):])
	}
	return out
}

// appendItems renders a paragraph as list or table rows, split at
// sentence-final periods, each escaped between open and close.
func appendItems(b []byte, para, open, close string) []byte {
	start := 0
	for i := 0; i < len(para); i++ {
		if para[i] == '.' && (i+1 == len(para) || para[i+1] == ' ') {
			b = cat(appendEscaped(cat(b, open), strings.TrimSpace(para[start:i+1])), close)
			start = i + 1
		}
	}
	if rest := strings.TrimSpace(para[start:]); rest != "" {
		b = cat(appendEscaped(cat(b, open), rest), close)
	}
	return b
}

// appendEscaped appends s with &, < and > escaped as entities.
func appendEscaped(b []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, "&<>")
		if i < 0 {
			return append(b, s...)
		}
		b = append(b, s[:i]...)
		switch s[i] {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		default:
			b = append(b, "&gt;"...)
		}
		s = s[i+1:]
	}
}

// corrupt introduces the markup defects that dominate real-world HTML
// ([19]: 95% of pages non-conforming): dropped end tags, misnesting,
// unquoted attributes, stray end tags.
func corrupt(r *rng.RNG, html []byte) []byte {
	ops := 1 + r.Intn(3)
	for i := 0; i < ops; i++ {
		switch r.Intn(4) {
		case 0:
			// Drop some </p> tags.
			html = replace(html, "</p>", "", 1+r.Intn(3))
		case 1:
			// Drop a </div>.
			html = replace(html, "</div>", "", 1)
		case 2:
			// Stray end tag injected mid-document.
			if idx := bytes.Index(html, []byte("<article>")); idx >= 0 {
				const stray = "</span>"
				html = append(html, stray...)
				copy(html[idx+len(stray):], html[idx:])
				copy(html[idx:], stray)
			}
		default:
			// Unquote an attribute.
			html = replace(html, `class="nav"`, `class=nav`, 1)
		}
	}
	return html
}

// replace is strings.Replace in place, for a new no longer than old:
// occurrences are found left to right in what is not yet rewritten, so a
// match a removal creates is not taken.
func replace(b []byte, old, new string, n int) []byte {
	for i := 0; n > 0; n-- {
		j := bytes.Index(b[i:], []byte(old))
		if j < 0 {
			break
		}
		j += i
		copy(b[j:], new)
		b = append(b[:j+len(new)], b[j+len(old):]...)
		i = j + len(new)
	}
	return b
}
