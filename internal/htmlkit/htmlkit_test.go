package htmlkit

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeSimple(t *testing.T) {
	toks := Tokenize(`<html><body><p class="x">Hello</p></body></html>`)
	want := []struct {
		typ  TokenType
		name string
		data string
	}{
		{StartTag, "html", ""},
		{StartTag, "body", ""},
		{StartTag, "p", ""},
		{Text, "", "Hello"},
		{EndTag, "p", ""},
		{EndTag, "body", ""},
		{EndTag, "html", ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Type != w.typ || toks[i].Name != w.name || (w.data != "" && toks[i].Data != w.data) {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], w)
		}
	}
}

func TestTokenizeAttributes(t *testing.T) {
	toks := Tokenize(`<a href="http://x.com/p" class='big' disabled>link</a>`)
	if toks[0].Type != StartTag || toks[0].Name != "a" {
		t.Fatalf("first token = %+v", toks[0])
	}
	if v, ok := toks[0].Attr("href"); !ok || v != "http://x.com/p" {
		t.Errorf("href = %q, ok=%v", v, ok)
	}
	if v, ok := toks[0].Attr("class"); !ok || v != "big" {
		t.Errorf("class = %q", v)
	}
	if _, ok := toks[0].Attr("disabled"); !ok {
		t.Error("missing bare attribute")
	}
	if _, ok := toks[0].Attr("nope"); ok {
		t.Error("found nonexistent attribute")
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := Tokenize(`<br/><img src="x.png" />`)
	if !toks[0].SelfClosing || toks[0].Name != "br" {
		t.Errorf("br: %+v", toks[0])
	}
	if !toks[1].SelfClosing || toks[1].Name != "img" {
		t.Errorf("img: %+v", toks[1])
	}
	if v, _ := toks[1].Attr("src"); v != "x.png" {
		t.Errorf("src = %q", v)
	}
}

func TestTokenizeComment(t *testing.T) {
	toks := Tokenize(`a<!-- hidden -->b`)
	if len(toks) != 3 || toks[1].Type != Comment || toks[1].Data != " hidden " {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestTokenizeDoctype(t *testing.T) {
	toks := Tokenize(`<!DOCTYPE html><p>x</p>`)
	if toks[0].Type != Doctype {
		t.Fatalf("first token: %+v", toks[0])
	}
}

func TestTokenizeScriptContentSkipped(t *testing.T) {
	toks := Tokenize(`<script>var a = "<p>not a tag</p>";</script><p>real</p>`)
	for _, tok := range toks {
		if tok.Type == Text && strings.Contains(tok.Data, "not a tag") {
			t.Fatalf("script content leaked as text: %+v", tok)
		}
	}
	// The real paragraph must survive.
	found := false
	for _, tok := range toks {
		if tok.Type == Text && tok.Data == "real" {
			found = true
		}
	}
	if !found {
		t.Fatal("content after script lost")
	}
}

// rawTextCloseCases are pages whose <script>/<style> close tag the
// tokenizer must find in the original bytes: invalid UTF-8 inside the
// element (lower-casing it changes its length), a mixed-case close tag
// with junk before '>', and one close search per element on a page with
// hundreds. Each <p>kept</p> after an element must survive.
var rawTextCloseCases = []struct {
	name, html string
	kept       int
}{
	{"invalid utf8 in script", "<script>\xff\xfe\xfd\xfc\xfb</script><p>kept</p>", 1},
	{"mixed-case close", `<script>var a = "<p>no</p>";</SCRIPT ><p>kept</p>`, 1},
	{"near misses first", "<style></ </s </styl</STYLE><p>kept</p>", 1},
	{"200 styles", strings.Repeat("<style>p{}</Style><p>kept</p>", 200), 200},
	{"close tag cut short", "<p>kept</p><script>x</scrip", 1},
}

func TestTokenizeRawTextClose(t *testing.T) {
	for _, c := range rawTextCloseCases {
		starts, text := 0, ""
		for _, tok := range Tokenize(c.html) {
			if tok.Type == StartTag && tok.Name == "p" {
				starts++
			}
			if tok.Type == Text {
				text += tok.Data
			}
		}
		if want := strings.Repeat("kept", c.kept); starts != c.kept || text != want {
			t.Errorf("%s: %d <p> start tags and text %q, want %d and %q", c.name, starts, text, c.kept, want)
		}
	}
}

func TestTokenizeMalformedNeverPanics(t *testing.T) {
	cases := []string{
		"", "<", "<>", "</>", "<a", "<a href=", `<a href="unterminated`,
		"<p><b>no close", "</nope>", "<!-- unterminated", "<<p>>", "< p>",
		"<p class=>x</p>", "text < 5 and > 3", "<a\x00b>", "<p//>",
		"<script>never closed", "<b></b></b></b>",
	}
	for _, c := range cases {
		_ = Tokenize(c) // must not panic
	}
}

func TestTokenizeRoundTripProperty(t *testing.T) {
	// Property: all input text outside tags is preserved in Text tokens.
	err := quick.Check(func(a, b string) bool {
		a = strings.Map(dropAngle, a)
		b = strings.Map(dropAngle, b)
		toks := Tokenize(a + "<p>" + b + "</p>")
		var got strings.Builder
		for _, tok := range toks {
			if tok.Type == Text {
				got.WriteString(tok.Data)
			}
		}
		return got.String() == a+b
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func dropAngle(r rune) rune {
	if r == '<' || r == '>' || r == '&' {
		return ' '
	}
	return r
}

func TestRepairUnclosed(t *testing.T) {
	toks, stats := Repair(Tokenize("<div><p>text"))
	if stats.UnclosedTags != 2 {
		t.Errorf("UnclosedTags = %d, want 2", stats.UnclosedTags)
	}
	// Stream must end with </p></div>.
	last := toks[len(toks)-1]
	if last.Type != EndTag || last.Name != "div" {
		t.Errorf("last token = %+v", last)
	}
}

func TestRepairStray(t *testing.T) {
	_, stats := Repair(Tokenize("<p>x</p></div></span>"))
	if stats.StrayEndTags != 2 {
		t.Errorf("StrayEndTags = %d, want 2", stats.StrayEndTags)
	}
}

func TestRepairMisnested(t *testing.T) {
	toks, stats := Repair(Tokenize("<b><i>x</b></i>"))
	if stats.MisnestedTags != 1 {
		t.Errorf("MisnestedTags = %d, want 1", stats.MisnestedTags)
	}
	// After repair, </i> must appear before </b>.
	order := []string{}
	for _, tok := range toks {
		if tok.Type == EndTag {
			order = append(order, tok.Name)
		}
	}
	if len(order) != 2 || order[0] != "i" || order[1] != "b" {
		t.Errorf("end tag order = %v", order)
	}
}

func TestRepairBalancedProperty(t *testing.T) {
	// Property: after repair every start tag (non-void, non-self-closing)
	// has a matching end tag and nesting is well-formed.
	inputs := []string{
		"<div><p>a<p>b</div>", "<ul><li>1<li>2</ul>", "<b><i>x</b>y</i>",
		"<table><tr><td>x</table>", "text</p><p>more", "<a><b><c><d>deep",
	}
	for _, in := range inputs {
		toks, _ := Repair(Tokenize(in))
		var stack []string
		for _, tok := range toks {
			switch tok.Type {
			case StartTag:
				if opens(&tok) {
					stack = append(stack, tok.Name)
				}
			case EndTag:
				if len(stack) == 0 || stack[len(stack)-1] != tok.Name {
					t.Fatalf("input %q: unbalanced end tag %q (stack %v)", in, tok.Name, stack)
				}
				stack = stack[:len(stack)-1]
			}
		}
		if len(stack) != 0 {
			t.Fatalf("input %q: unclosed after repair: %v", in, stack)
		}
	}
}

func TestRepairStatsTotal(t *testing.T) {
	s := RepairStats{UnclosedTags: 1, StrayEndTags: 2, MisnestedTags: 3}
	if s.Total() != 6 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestExtractBlocks(t *testing.T) {
	html := `<body><nav><a href="/">Home</a> <a href="/x">About</a></nav>
<p>This is the main article text with many words in it for sure.</p>
<div class="footer"><a href="/c">Contact</a></div></body>`
	toks, _ := Repair(Tokenize(html))
	blocks := ExtractBlocks(toks)
	if len(blocks) < 3 {
		t.Fatalf("got %d blocks: %+v", len(blocks), blocks)
	}
	// Find the article block: it must have zero link density.
	var article *Block
	for i := range blocks {
		if strings.Contains(blocks[i].Text, "main article") {
			article = &blocks[i]
		}
	}
	if article == nil {
		t.Fatal("article block not found")
	}
	if article.LinkDensity() != 0 {
		t.Errorf("article link density = %v", article.LinkDensity())
	}
	if article.Tag != "p" {
		t.Errorf("article tag = %q", article.Tag)
	}
	// Nav block: fully linked.
	var nav *Block
	for i := range blocks {
		if strings.Contains(blocks[i].Text, "Home") {
			nav = &blocks[i]
		}
	}
	if nav == nil {
		t.Fatal("nav block not found")
	}
	if nav.LinkDensity() < 0.99 {
		t.Errorf("nav link density = %v", nav.LinkDensity())
	}
}

func TestLinkDensityEmptyBlock(t *testing.T) {
	b := Block{}
	if b.LinkDensity() != 0 {
		t.Error("empty block should have zero link density")
	}
}

// TestEndTagX: "</x>" closes <x>. Its name once read as the placeholder
// for "no name", which left the literal "</x>" in the text and <x> open.
func TestEndTagX(t *testing.T) {
	if got := StripMarkup("<x>a</x>b"); got != "ab" {
		t.Errorf("StripMarkup = %q, want %q", got, "ab")
	}
	if _, stats := Repair(Tokenize("<x>a</x>b")); stats != (RepairStats{}) {
		t.Errorf("repairs %+v, want none", stats)
	}
}

func TestStripMarkup(t *testing.T) {
	got := StripMarkup(`<html><body><h1>Title</h1><p>Body &amp; text.</p><script>x()</script></body></html>`)
	if !strings.Contains(got, "Title") || !strings.Contains(got, "Body & text.") {
		t.Errorf("StripMarkup = %q", got)
	}
	if strings.Contains(got, "x()") {
		t.Errorf("script leaked: %q", got)
	}
}

func TestExtractLinks(t *testing.T) {
	toks := Tokenize(`<a href="http://a.com/1">One</a><p>x</p><a href="/rel">Two words</a><a>no href</a>`)
	links := ExtractLinks(toks)
	if len(links) != 2 {
		t.Fatalf("got %d links: %+v", len(links), links)
	}
	if links[0].Href != "http://a.com/1" || links[0].Anchor != "One" {
		t.Errorf("link 0 = %+v", links[0])
	}
	if links[1].Href != "/rel" || links[1].Anchor != "Two words" {
		t.Errorf("link 1 = %+v", links[1])
	}
}

func TestExtractLinksUnclosedAnchor(t *testing.T) {
	links := ExtractLinks(Tokenize(`<a href="/x">dangling`))
	if len(links) != 1 || links[0].Href != "/x" {
		t.Fatalf("links = %+v", links)
	}
}

func TestTitle(t *testing.T) {
	toks := Tokenize(`<html><head><title>My  Page </title></head><body>x</body></html>`)
	if got := Title(toks); got != "My Page" {
		t.Errorf("Title = %q", got)
	}
	if got := Title(Tokenize("<p>no title</p>")); got != "" {
		t.Errorf("Title = %q, want empty", got)
	}
}

func TestDecodeEntities(t *testing.T) {
	if got := DecodeEntities("a &amp; b &lt;c&gt; &nbsp;d"); got != "a & b <c>  d" {
		t.Errorf("DecodeEntities = %q", got)
	}
	if got := DecodeEntities("plain"); got != "plain" {
		t.Errorf("DecodeEntities(plain) = %q", got)
	}
	// One pass, no recursion; unknown and unterminated entities stay.
	for in, want := range map[string]string{"&amp;lt;": "&lt;", "&unknown; &amp": "&unknown; &amp", "&&amp;;": "&&;"} {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsBlock(t *testing.T) {
	if !IsBlock("p") || !IsBlock("div") || IsBlock("span") || IsBlock("b") {
		t.Error("IsBlock misclassifies")
	}
}

func BenchmarkTokenize(b *testing.B) {
	html := strings.Repeat(`<div class="row"><p>Some text with <a href="/x">links</a> inside.</p></div>`, 100)
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(html)
	}
}

func BenchmarkRepairAndBlocks(b *testing.B) {
	html := strings.Repeat(`<div><p>Some text <b>bold<i>both</b></i><li>item`, 200)
	toks := Tokenize(html)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repaired, _ := Repair(toks)
		_ = ExtractBlocks(repaired)
	}
}

func TestTokenizeRandomBytesNeverPanics(t *testing.T) {
	// Arbitrary byte soup — including angle brackets in pathological
	// positions — must tokenize and repair without panicking, and repair
	// must always yield balanced streams.
	if err := quick.Check(func(data []byte) bool {
		toks, _ := Repair(Tokenize(string(data)))
		var stack []string
		for _, tok := range toks {
			switch tok.Type {
			case StartTag:
				if opens(&tok) {
					stack = append(stack, tok.Name)
				}
			case EndTag:
				if len(stack) == 0 || stack[len(stack)-1] != tok.Name {
					return false
				}
				stack = stack[:len(stack)-1]
			}
		}
		return len(stack) == 0
	}, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractBlocksRandomNeverPanics(t *testing.T) {
	if err := quick.Check(func(data string) bool {
		toks, _ := Repair(Tokenize(data))
		blocks := ExtractBlocks(toks)
		for _, b := range blocks {
			if b.Words < 0 || b.LinkedWords > b.Words+100 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
