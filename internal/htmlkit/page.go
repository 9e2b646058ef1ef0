package htmlkit

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Link is an extracted hyperlink.
type Link struct {
	// Href is the raw href attribute value.
	Href string
	// Anchor is the normalized anchor text.
	Anchor string
}

// Page is everything the web operators take from one page's HTML, from
// one pass over it.
type Page struct {
	// Source is the HTML the page was parsed from.
	Source string
	// Blocks and Repairs are what Blocks(Source) returns.
	Blocks  []Block
	Repairs RepairStats
	// Links is every <a href=...> of the raw token stream with its anchor
	// text; an anchor still open at the next <a> or at the end counts.
	Links []Link
	// Title is the text of the first <title> element, up to the first
	// </title>.
	Title string
}

// Parse lexes html once: the raw tokens feed the link and title collector
// and, through the repairer, the block builder. Attributes are lexed into
// one pooled buffer that every start tag reuses; a tag with more
// attributes than it holds grows it and is lexed again.
func Parse(html string) Page {
	s := getScratch()
	l := lexer{src: html, attrs: s.attrs[:0]}
	emit := s.b.token
	for {
		pos, nattr := l.pos, l.nattr
		t, ok := l.next()
		if !ok {
			break
		}
		if n := l.nattr - nattr; n > cap(l.attrs) {
			l.attrs = make([]Attr, 0, 2*n)
			l.pos, l.nattr, l.raw = pos, nattr, ""
			t, _ = l.next()
		}
		s.c.token(t)
		s.r.feed(t, emit)
		l.attrs = l.attrs[:0]
	}
	s.attrs = l.attrs
	s.r.close(emit)
	s.b.flush()
	links, title := s.c.done()
	p := Page{Source: html, Blocks: s.b.done(), Repairs: s.r.stats, Links: links, Title: title}
	scratchPool.Put(s)
	return p
}

// collector gathers the links and the title from the raw token stream.
// Finished anchors' texts sit in text one after another, decoded and
// normalized, link i's ending at ends[i]; the open anchor's decoded text
// follows them from start. The title's text collects in title.
type collector struct {
	links     []Link // finished links, Anchor unset until done
	ends      []int
	text      []byte
	start     int
	href      string
	inA       bool
	title     []byte
	inTitle   bool
	titleDone bool
}

func (c *collector) token(t Token) {
	switch t.Type {
	case StartTag:
		if t.Name == "a" {
			c.closeAnchor()
			c.inA = true
			c.href, _ = t.Attr("href")
		}
		if t.Name == "title" {
			c.inTitle = true
		}
	case EndTag:
		if t.Name == "a" {
			c.closeAnchor()
		}
		if t.Name == "title" {
			c.titleDone = true
		}
	case Text:
		if c.inA {
			c.text = appendDecoded(c.text, t.Data)
		}
		if c.inTitle && !c.titleDone {
			c.title = appendDecoded(c.title, t.Data)
		}
	}
}

// closeAnchor ends the open anchor, if any: it becomes a link when it has
// an href, and its text is dropped otherwise.
func (c *collector) closeAnchor() {
	if c.inA && c.href != "" {
		c.text = c.text[:c.start+squeeze(c.text[c.start:])]
		c.links = append(c.links, Link{Href: c.href})
		c.ends = append(c.ends, len(c.text))
		c.start = len(c.text)
	}
	c.text = c.text[:c.start]
	c.inA, c.href = false, ""
}

// done ends the stream and returns the links, their anchors backed by one
// string, and the title.
func (c *collector) done() ([]Link, string) {
	c.closeAnchor()
	var links []Link
	if len(c.links) > 0 {
		links = make([]Link, len(c.links))
		anchors, from := string(c.text), 0
		for i, end := range c.ends {
			links[i] = Link{Href: c.links[i].Href, Anchor: anchors[from:end]}
			from = end
		}
	}
	return links, string(c.title[:squeeze(c.title)])
}

// squeeze normalizes p in place as strings.Join(strings.Fields(p), " ")
// would, and returns the normalized length.
func squeeze(p []byte) int {
	w, gap := 0, false
	for i := 0; i < len(p); {
		r, size := utf8.DecodeRune(p[i:])
		if unicode.IsSpace(r) {
			gap, i = w > 0, i+size
			continue
		}
		if gap {
			p[w], gap = ' ', false
			w++
		}
		w += copy(p[w:], p[i:i+size])
		i += size
	}
	return w
}

// appendDecoded appends s to dst with its character references resolved.
func appendDecoded(dst []byte, s string) []byte {
	for i := strings.IndexByte(s, '&'); i >= 0; i = strings.IndexByte(s, '&') {
		ref, val := entityAt(s[i:])
		dst = append(append(dst, s[:i]...), val...)
		s = s[i+len(ref):]
	}
	return append(dst, s...)
}
