package htmlkit

import (
	"strings"
	"testing"
	"unicode/utf8"

	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

// corruptSeedCorpus renders a small fully-corrupted synthetic web and
// returns its HTML page bodies — realistic malformed markup (dropped end
// tags, stray tags, unquoted attributes) for fuzz seeding.
func corruptSeedCorpus(tb testing.TB, maxPages int) []string {
	tb.Helper()
	lex := textgen.NewLexicon(rng.New(11), textgen.DefaultLexiconSizes(), 0.75)
	gen := textgen.NewGenerator(12, lex, textgen.DefaultProfiles())
	cfg := synthweb.DefaultConfig()
	cfg.Seed = 11
	cfg.NumHosts = 4
	cfg.CorruptShare = 1.0
	web := synthweb.New(cfg, gen)

	var out []string
	for _, h := range web.Hosts {
		for i := 0; i < h.Pages && len(out) < maxPages; i++ {
			p, err := web.Fetch(synthweb.PageURL(h.Name, i))
			if err != nil {
				continue
			}
			if strings.Contains(string(p.Body), "<html") || strings.Contains(string(p.Body), "<HTML") {
				out = append(out, string(p.Body))
			}
		}
		if len(out) >= maxPages {
			break
		}
	}
	if len(out) == 0 {
		tb.Fatal("corrupt seed corpus is empty")
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
	for _, s := range corruptSeedCorpus(f, 12) {
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

// FuzzDecodeEntities checks the entity decoder on arbitrary input.
func FuzzDecodeEntities(f *testing.F) {
	f.Add("&amp;")
	f.Add("&#65;&#x41;")
	f.Add("&unterminated")
	f.Add("&;&&#;&#x;")
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeEntities(s)
		if utf8.ValidString(s) && !utf8.ValidString(out) {
			t.Fatalf("DecodeEntities(%q) = %q, not valid UTF-8", s, out)
		}
	})
}
