package boiler

import (
	"strings"
	"testing"

	"webtextie/internal/htmlkit"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// refExtract is the predecessor of Extract, kept verbatim as its oracle: a
// token slice through htmlkit's Tokenize, Repair and ExtractBlocks, a label
// per block, and the content joined. htmlkit's TestStreamMatchesReference
// holds those three to their own predecessors on the same kind of pages,
// so together the two tests hold Extract to the code it replaced.
func (c *Classifier) refExtract(html string) Result {
	tokens, stats := htmlkit.Repair(htmlkit.Tokenize(html))
	blocks := htmlkit.ExtractBlocks(tokens)
	labels := c.Classify(blocks)
	var parts []string
	content := 0
	for _, l := range labels {
		if l.Content {
			parts = append(parts, l.Block.Text)
			content++
		}
	}
	return Result{
		NetText:       strings.Join(parts, "\n"),
		ContentBlocks: content,
		TotalBlocks:   len(blocks),
		RepairStats:   stats,
	}
}

// webPages renders the first n page bodies of a synthetic web whose pages
// are malformed at the given share.
func webPages(tb testing.TB, seed uint64, corrupt float64, n int) []string {
	tb.Helper()
	lex := textgen.NewLexicon(rng.New(seed), textgen.DefaultLexiconSizes(), 0.75)
	cfg := synthweb.DefaultConfig()
	cfg.Seed = seed
	cfg.NumHosts = 1 + n/4
	cfg.CorruptShare = corrupt
	web := synthweb.New(cfg, textgen.NewGenerator(seed+1, lex, textgen.DefaultProfiles()))
	var out []string
	for _, h := range web.Hosts {
		for i := 0; i < h.Pages && len(out) < n; i++ {
			if p, err := web.Fetch(synthweb.PageURL(h.Name, i)); err == nil {
				out = append(out, string(p.Body))
			}
		}
	}
	if len(out) < n {
		tb.Fatalf("synthetic web served %d pages, want %d", len(out), n)
	}
	return out
}

// extractShapes are pages whose classification leans on every rule:
// sandwiched short blocks, link-dense neighbours, tables and lists, blank
// and invalid-UTF-8 text between inline tags.
var extractShapes = []string{
	"",
	"<p>" + strings.Repeat("long prose ", 8) + "</p><p>six short words right here now</p><p>" + strings.Repeat("more prose ", 8),
	"<div><a href=/a>" + strings.Repeat("link ", 20) + "</a></div><p>seven short words sit right here now</p><p>" + strings.Repeat("w ", 14),
	"<table><tr><td>" + strings.Repeat("cell ", 40) + "<td>" + strings.Repeat("cell ", 12) + "</table><li>" + strings.Repeat("item ", 13),
	"<p>foo<b>bar</b> baz\u00a0qux\u3000quux " + strings.Repeat("x ", 10) + "<p>\xc2<b>\xa0</b>" + strings.Repeat("y ", 12),
	"<P>UPPER " + strings.Repeat("W ", 12) + "</P><x>a</x>b</\u212Ab>",
}

// checkExtract compares every field of Extract's result with refExtract's.
func checkExtract(t *testing.T, c *Classifier, html string) {
	t.Helper()
	if got, want := c.Extract(html), c.refExtract(html); got != want {
		t.Fatalf("Extract(%q):\n got %+v\nwant %+v", html, got, want)
	}
}

// TestExtractMatchesReference holds Extract to its predecessor on 1,600
// synthetic pages, half from the default web and half fully corrupted,
// with the stock rules and with KeepTables.
func TestExtractMatchesReference(t *testing.T) {
	pages := append(webPages(t, 3, synthweb.DefaultConfig().CorruptShare, 800), webPages(t, 5, 1.0, 800)...)
	keep := Default()
	keep.KeepTables = true
	for _, c := range []*Classifier{Default(), keep} {
		for _, html := range append(pages, extractShapes...) {
			checkExtract(t, c, html)
		}
	}
}

// FuzzExtractMatchesReference is the same comparison on arbitrary bytes.
func FuzzExtractMatchesReference(f *testing.F) {
	for _, s := range webPages(f, 23, 1.0, 8) {
		f.Add(s)
	}
	for _, s := range extractShapes {
		f.Add(s)
	}
	c := Default()
	f.Fuzz(func(t *testing.T, html string) { checkExtract(t, c, html) })
}
