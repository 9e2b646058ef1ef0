package synthweb

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// renderGoldenHash is what TestRenderGolden printed when it was added, at
// the commit before the renderer stopped going through fmt and
// strings.Builder: the simulator's output is pinned to its predecessor's.
const renderGoldenHash = "19c31f2d69854f4823b17c6ce6038b42a98db7b27f44e085f9a7008b525a024c"

// goldenWriter feeds length-prefixed fields into a hash, one page at a
// time.
type goldenWriter struct {
	buf []byte
}

func (g *goldenWriter) str(s string) {
	g.buf = strconv.AppendInt(g.buf, int64(len(s)), 10)
	g.buf = append(g.buf, ':')
	g.buf = append(g.buf, s...)
}

func (g *goldenWriter) num(n int) {
	g.buf = strconv.AppendInt(g.buf, int64(n), 10)
	g.buf = append(g.buf, ';')
}

func (g *goldenWriter) flag(b bool) {
	if b {
		g.num(1)
	} else {
		g.num(0)
	}
}

// page writes everything a page serves and every gold annotation behind
// it but the relations (the gold fix that trims them changes no page
// byte) and the *Entry pointers.
func (g *goldenWriter) page(p *Page) {
	g.str(p.URL)
	g.str(p.Host.Name)
	g.str(string(p.MIME))
	g.str(p.Lang)
	g.flag(p.Relevant)
	g.flag(p.Portal)
	g.str(p.MirrorOf)
	g.str(string(p.Body))
	g.str(p.NetText)
	g.num(len(p.Links))
	for _, l := range p.Links {
		g.str(l)
	}
	d := p.Doc
	if d == nil {
		g.num(-1)
		return
	}
	g.str(d.ID)
	g.num(int(d.Kind))
	g.str(d.Text)
	g.num(len(d.Sentences))
	for _, s := range d.Sentences {
		g.flag(s.Degenerate)
		g.flag(s.Negated)
		g.flag(s.RelSubjObj)
		g.str(s.RelVerb)
		g.num(len(s.Tokens))
		for _, tok := range s.Tokens {
			g.str(tok.Text)
			g.str(tok.Tag)
			g.num(int(tok.Ent))
			g.flag(tok.First)
			g.num(tok.Pron)
		}
	}
	for _, sp := range d.SentSpans {
		g.num(sp[0])
		g.num(sp[1])
	}
	g.num(len(d.Mentions))
	for _, m := range d.Mentions {
		g.num(int(m.Type))
		g.str(m.Name)
		g.num(m.Start)
		g.num(m.End)
		g.num(m.Sentence)
	}
}

// eachPage renders every regular page of a web and the first three trap
// pages of every trap host, their gold documents with tokens if tokens is
// set, and hands each to fn with the URL it was rendered from.
func eachPage(t *testing.T, w *Web, tokens bool, fn func(url string, p *Page)) {
	t.Helper()
	visit := func(url string) {
		p, err := w.page(url, tokens)
		if err != nil {
			t.Fatal(err)
		}
		fn(url, p)
	}
	for _, h := range w.Hosts {
		for idx := 0; idx < h.Pages; idx++ {
			visit(PageURL(h.Name, idx))
		}
		if h.Trap {
			for depth := 0; depth < 3; depth++ {
				visit(TrapURL(h.Name, depth))
			}
		}
	}
}

// servedKind names the class of a page that the served-page check in
// TestRenderGolden must sample: each is rendered through its own path.
func servedKind(p *Page) string {
	switch {
	case strings.Contains(p.URL, "/trap/"):
		return "trap"
	case p.Portal:
		return "portal"
	case p.MirrorOf != "":
		return "mirror"
	case !p.MIME.IsTextual():
		return "binary"
	case p.Lang != "en":
		return "foreign"
	}
	return "regular"
}

// TestRenderGolden hashes every page of a fixed default-shaped web — URL,
// served bytes, links, net text, labels, and each gold document's tokens,
// sentence spans and mentions — and compares the hash with the one the
// renderer's predecessor printed. A rewrite of the simulator that is meant
// to change no byte must leave it alone. A deterministic sample of the
// pages — the first 32 of each kind and every 8th page — is also rendered
// as Fetch serves it, whose gold document has no tokens, and must equal
// the hashed page but for the document's Sentences.
func TestRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a 700-host web")
	}
	w := buildWeb(ScaledConfig(3, 1))
	h := sha256.New()
	var g goldenWriter
	pages := 0
	sampled := map[string]int{}
	eachPage(t, w, true, func(url string, p *Page) {
		g.buf = g.buf[:0]
		g.page(p)
		h.Write(g.buf)
		pages++
		kind := servedKind(p)
		if sampled[kind] >= 32 && pages%8 != 0 {
			return
		}
		sampled[kind]++
		served, err := w.page(url, false)
		if err != nil {
			t.Fatal(err)
		}
		want := *p
		if p.Doc != nil {
			doc := *p.Doc
			doc.Sentences = nil
			want.Doc = &doc
		}
		if !reflect.DeepEqual(served, &want) {
			t.Fatalf("%s: the served page differs from the token-carrying page beyond its document's Sentences", url)
		}
	})
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d pages, hash %s; served pages compared by kind: %v", pages, got, sampled)
	if got != renderGoldenHash {
		t.Errorf("render hash over %d pages = %s, want %s", pages, got, renderGoldenHash)
	}
	for _, kind := range []string{"trap", "portal", "mirror", "binary", "foreign", "regular"} {
		if sampled[kind] == 0 {
			t.Errorf("no %s page in the served-page sample", kind)
		}
	}
}

// TestGoldRelationsInRange: every gold relation of every page names a
// sentence the page's document still has and two mentions of that
// sentence. Portal and too-short pages cut their document down to a few
// sentences, and the relations of the cut sentences must go with them.
func TestGoldRelationsInRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumHosts = 100
	w := buildWeb(cfg)
	relations := 0
	eachPage(t, w, false, func(_ string, p *Page) {
		if p.Doc == nil {
			return
		}
		d := p.Doc
		for _, r := range d.Relations {
			relations++
			if r.Sentence < 0 || r.Sentence >= len(d.SentSpans) {
				t.Fatalf("%s: relation names sentence %d of %d", p.URL, r.Sentence, len(d.SentSpans))
			}
			for _, m := range []int{r.A, r.B} {
				if m < 0 || m >= len(d.Mentions) {
					t.Fatalf("%s: relation names mention %d of %d", p.URL, m, len(d.Mentions))
				}
				if d.Mentions[m].Sentence != r.Sentence {
					t.Fatalf("%s: relation in sentence %d names a mention of sentence %d", p.URL, r.Sentence, d.Mentions[m].Sentence)
				}
			}
		}
	})
	if relations == 0 {
		t.Fatal("no gold relations in the web")
	}
}
