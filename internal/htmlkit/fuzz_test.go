package htmlkit

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// synthPages renders the first maxPages page bodies of a synthetic web
// whose pages are malformed at the given share (1.0: every one dropped end
// tags, stray tags, unquoted attributes), for the differential test and
// fuzz seeding.
func synthPages(tb testing.TB, seed uint64, corrupt float64, maxPages int) []string {
	tb.Helper()
	lex := textgen.NewLexicon(rng.New(seed), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(seed+1, lex, textgen.DefaultProfiles())
	cfg := synthweb.DefaultConfig()
	cfg.Seed = seed
	cfg.NumHosts = 1 + maxPages/4
	cfg.CorruptShare = corrupt
	web := synthweb.New(cfg, gen)

	var out []string
	for _, h := range web.Hosts {
		for i := 0; i < h.Pages && len(out) < maxPages; i++ {
			if p, err := web.Fetch(synthweb.PageURL(h.Name, i)); err == nil {
				out = append(out, string(p.Body))
			}
		}
	}
	if len(out) < maxPages {
		tb.Fatalf("synthetic web served %d pages, want %d", len(out), maxPages)
	}
	return out
}

// handcraftedMalformed are pathological fragments the synthetic corruptor
// does not produce: truncation mid-tag, deep nesting, binary junk.
var handcraftedMalformed = []string{
	"",
	"<",
	"<p",
	"<p class=",
	"plain text, no markup at all",
	"<html><body><p>unclosed paragraph<div>and a div",
	"<table><tr><td><table><tr><td>nested tables, nothing closed",
	"<a href=x.html>link <a href=y.html>inside link</a>",
	"<script>if (a < b) { document.write('<p>') }</script>after",
	"<!-- comment that never ends <p>hidden",
	"<p>&amp; &lt; &gt; &nbsp; &#65; &unknown; &#xZZ;",
	"<P CLASS=HEAD>UPPERCASE TAGS</P><BR><HR>",
	"</div></div></p>only end tags",
	"<div \x00\x01\xff attr=\xfe>binary in markup</div>",
	"<style>body { color: red }</style><p>visible</p>",
	strings.Repeat("<div>", 300) + "deep" + strings.Repeat("</div>", 100),
}

// FuzzTokenizeRepairExtract drives the full htmlkit pipeline with
// arbitrary bytes: it must never panic, and valid-UTF-8 input must yield
// valid-UTF-8 block text.
func FuzzTokenizeRepairExtract(f *testing.F) {
	for _, s := range synthPages(f, 11, 1.0, 12) {
		f.Add(s)
	}
	for _, s := range handcraftedMalformed {
		f.Add(s)
	}
	for _, c := range rawTextCloseCases {
		f.Add(c.html)
	}
	f.Fuzz(func(t *testing.T, html string) {
		tokens := Tokenize(html)
		repaired, stats := Repair(tokens)
		if stats.UnclosedTags < 0 || stats.StrayEndTags < 0 {
			t.Fatalf("negative repair stats: %+v", stats)
		}
		blocks := ExtractBlocks(repaired)
		if !utf8.ValidString(html) {
			return
		}
		for i, b := range blocks {
			if !utf8.ValidString(b.Text) {
				t.Fatalf("block %d text is not valid UTF-8: %q", i, b.Text)
			}
			if b.Words < 0 || b.LinkedWords < 0 || b.LinkedWords > b.Words {
				t.Fatalf("block %d inconsistent word counts: %+v", i, b)
			}
		}
	})
}

// FuzzDecodeEntities holds the entity decoder to the strings.Replacer it
// replaced: one left-to-right pass, no match decoded twice, anything that
// is not one of the nine entities left as it is.
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"&amp;", "&amp;lt;", "&#65;&#x41;", "&unterminated", "&;&&#;&#x;",
		"&amp", "&nbsp", "&&amp;;", "&mdash;&ndash;&quot;&apos;&#39;&gt;&lt;", "\xff&amp;\xfe"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := DecodeEntities(s), refDecodeEntities(s); got != want {
			t.Fatalf("DecodeEntities(%q) = %q, want %q", s, got, want)
		}
	})
}

// streamShapes are the inputs on which the streaming core is most likely
// to part from its predecessor: Unicode whitespace strings.Fields splits
// on, invalid UTF-8 (two tokens' stray bytes can join into one space
// rune), end tags that lower-case to ASCII only through strings.ToLower,
// upper-case tags, empty or blank text between inline tags ("foo<b>bar"
// is one run of text and two words), and entities that must not decode
// twice or at all.
var streamShapes = []string{
	"<p>a\u00a0b\u0085c\u2028d\u3000e</p>",
	"<p>x<b>\u00a0</b>y<i>\u3000</i></p>\u2028",
	"<p>\xc2<b>\xa0</b>z</p>",
	"<p>\xc2<!-- -->\x85</p><li>\xe3\x80<b>\x80</b>",
	"<p>\xff\xfe word \xc0\xaf</p>",
	"<kb>x</\u212Ab>y", "<i>x</\u0130>y", "<p>a</ \u212A>b</\u0130\u0130>",
	"<P CLASS=X>Upper</P><DIV>case</DiV><SCRIPT>x()</script>y<BR/>z",
	"<x>a</x>b",
	"foo<b>bar</b>", "<p>foo<b> </b>bar</p>", "<p><b></b><i>\t</i></p>x",
	"<a href=/x>one <b>two</b></a> three",
	"&amp;lt; &nbsp;&nbsp; &am &amp &#39 x&mdash;y&ndash;&quot;&apos;&unknown;",
	"</ p junk>a</p\u00a0x>b</\u00a0p>",
	// More attributes than Parse's buffer holds before it grows, href last.
	"<p><a " + strings.Repeat("data-x=1 ", 70) + "href=/far>many\u00a0<b>attrs</b></a><A HREF='/up'>&amp; again",
	"</title><title>x</title>", "<title>a &amp;<b>b</b></title><title>no</title>",
	"<a href=/1>one<a>two<a href=/3>\xc2</a>\xa0<a href=/4>\xc2<b>\x85</b>z</a>",
}

// checkStream compares every output of the streaming core on html with
// its predecessor's: the token stream, the repaired stream and its
// stats, the blocks (through the adapters, straight from unrepaired
// tokens, and from Blocks), each field of Parse's page, the stripped text
// and the decoded entities.
func checkStream(t *testing.T, html string) {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s of %q:\n got %#v\nwant %#v", what, html, got, want)
		}
	}
	tokens, refTokens := Tokenize(html), refTokenize(html)
	same("Tokenize", tokens, refTokens)
	repaired, stats := Repair(tokens)
	refRepaired, refStats := refRepair(refTokens)
	same("Repair", repaired, refRepaired)
	same("Repair stats", stats, refStats)
	refBlocks := refExtractBlocks(refRepaired)
	same("ExtractBlocks", ExtractBlocks(repaired), refBlocks)
	same("ExtractBlocks on unrepaired tokens", ExtractBlocks(tokens), refExtractBlocks(refTokens))
	blocks, stats := Blocks(html)
	same("Blocks", blocks, refBlocks)
	same("Blocks stats", stats, refStats)
	page := Parse(html)
	same("Parse source", page.Source, html)
	same("Parse blocks", page.Blocks, blocks)
	same("Parse repairs", page.Repairs, stats)
	same("Parse links", page.Links, ExtractLinks(tokens))
	same("Parse title", page.Title, Title(tokens))
	same("StripMarkup", StripMarkup(html), refStripMarkup(html))
	same("DecodeEntities", DecodeEntities(html), refDecodeEntities(html))
}

// TestStreamMatchesReference holds the streaming core to its predecessor
// on 1,600 synthetic pages, half from the default web and half fully
// corrupted, and on every handcrafted shape.
func TestStreamMatchesReference(t *testing.T) {
	pages := append(synthPages(t, 3, synthweb.DefaultConfig().CorruptShare, 800), synthPages(t, 5, 1.0, 800)...)
	pages = append(append(pages, handcraftedMalformed...), streamShapes...)
	for _, c := range rawTextCloseCases {
		pages = append(pages, c.html)
	}
	for _, html := range pages {
		checkStream(t, html)
	}
}

// TestExtractBlocksOfAnyStreamMatchesReference feeds the block builder
// token streams no lexer emits: empty text, text inside script, end tags
// with nothing open.
func TestExtractBlocksOfAnyStreamMatchesReference(t *testing.T) {
	text := func(s string) Token { return Token{Type: Text, Data: s} }
	for _, tokens := range [][]Token{
		{text("a"), text(""), text("b")},
		{text(""), text("a\xc2"), text(""), text("\x85b")},
		{{Type: StartTag, Name: "script"}, text("hidden"), {Type: EndTag, Name: "p"}, text("shown"), {Type: EndTag, Name: "script"}, text("too")},
		{{Type: EndTag, Name: "div"}, {Type: EndTag, Name: "a"}, text("x"), {Type: StartTag, Name: "a", SelfClosing: true}, text("y")},
	} {
		if got, want := ExtractBlocks(tokens), refExtractBlocks(tokens); !reflect.DeepEqual(got, want) {
			t.Errorf("ExtractBlocks(%+v):\n got %#v\nwant %#v", tokens, got, want)
		}
	}
}

// TestStreamConcurrent runs the pooled core from four goroutines at once,
// as the crawl fleet and the executor do: every call, Parse's too, must
// work in scratch of its own.
func TestStreamConcurrent(t *testing.T) {
	pages := synthPages(t, 7, 1.0, 40)
	type result struct {
		text     string
		blocks   []Block
		repaired []Token
		page     Page
	}
	want := make([]result, len(pages))
	for i, html := range pages {
		tokens := refTokenize(html)
		repaired, stats := refRepair(tokens)
		blocks := refExtractBlocks(repaired)
		page := Page{Source: html, Blocks: blocks, Repairs: stats, Links: ExtractLinks(tokens), Title: Title(tokens)}
		want[i] = result{refStripMarkup(html), blocks, repaired, page}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pages {
				i := (k + 10*g) % len(pages)
				blocks, _ := Blocks(pages[i])
				repaired, _ := Repair(Tokenize(pages[i]))
				got := result{StripMarkup(pages[i]), blocks, repaired, Parse(pages[i])}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, page %d: outputs differ from the reference", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzStreamMatchesReference is the same comparison on arbitrary bytes.
func FuzzStreamMatchesReference(f *testing.F) {
	for _, s := range synthPages(f, 13, 1.0, 8) {
		f.Add(s)
	}
	for _, s := range append(handcraftedMalformed, streamShapes...) {
		f.Add(s)
	}
	for _, c := range rawTextCloseCases {
		f.Add(c.html)
	}
	f.Fuzz(checkStream)
}
