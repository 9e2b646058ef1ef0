package htmlkit

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Block is a run of text between block-level boundaries, the unit the
// boilerplate detector classifies.
type Block struct {
	// Text is the whitespace-normalized text of the block.
	Text string
	// Words is the number of whitespace-separated words.
	Words int
	// LinkedWords is the number of words inside <a> elements.
	LinkedWords int
	// Tag is the nearest enclosing block element name ("p", "div", "li"...).
	Tag string
	// Depth is the element nesting depth where the block ends.
	Depth int
}

// LinkDensity returns the fraction of words inside anchors, the single most
// discriminative shallow feature in Boilerpipe [15].
func (b *Block) LinkDensity() float64 {
	if b.Words == 0 {
		return 0
	}
	return float64(b.LinkedWords) / float64(b.Words)
}

// Blocks segments raw HTML into text blocks in one streaming pass: the
// lexer feeds the repairer, which feeds the block builder, with no token
// slice between them. It returns what Repair(Tokenize(html)) followed by
// ExtractBlocks returns, and every Block.Text is a substring of one string.
func Blocks(html string) ([]Block, RepairStats) {
	s := getScratch()
	s.run(html)
	blocks := s.b.done()
	stats := s.r.stats
	scratchPool.Put(s)
	return blocks, stats
}

// ExtractBlocks segments repaired tokens into text blocks with the shallow
// features boilerplate detection needs. Script/style content never reaches
// the blocks (the tokenizer marks those elements; their text is skipped).
func ExtractBlocks(tokens []Token) []Block {
	s := getScratch()
	for _, t := range tokens {
		s.b.token(t)
	}
	s.b.flush()
	blocks := s.b.done()
	scratchPool.Put(s)
	return blocks
}

// StripMarkup is the "remove all markup" operator: tokenize, repair, and
// concatenate all text blocks. This is the fallback when boilerplate
// detection is disabled.
func StripMarkup(html string) string {
	s := getScratch()
	s.run(html)
	text := s.b.text()
	scratchPool.Put(s)
	return text
}

// scratch is one call's working memory, pooled across calls: the repair
// stack, the block builder's text buffer and finished blocks, and Parse's
// attribute buffer and link and title collector.
type scratch struct {
	r     repairer
	b     builder
	attrs []Attr
	c     collector
}

var scratchPool = sync.Pool{New: func() any { return &scratch{attrs: make([]Attr, 0, 64)} }}

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.r = repairer{stack: s.r.stack[:0]}
	s.b = builder{buf: s.b.buf[:0], blocks: s.b.blocks[:0], tag: "body", curTag: "body"}
	s.c = collector{links: s.c.links[:0], ends: s.c.ends[:0], text: s.c.text[:0], title: s.c.title[:0]}
	return s
}

// run is the streaming pass over html: lexer → repairer → builder.
func (s *scratch) run(html string) {
	l := lexer{src: html}
	emit := s.b.token
	for t, ok := l.next(); ok; t, ok = l.next() {
		s.r.feed(t, emit)
	}
	s.r.close(emit)
	s.b.flush()
}

// builder segments a token stream into blocks. Finished blocks' texts sit
// in buf one per line; the open block's text follows them, entity-decoded
// and whitespace-normalized as it is written, with its words counted per
// text token, as strings.Fields counts them.
type builder struct {
	buf    []byte
	blocks []Block // finished blocks, Text unset until done
	start  int     // where the open block's text begins in buf
	gap    bool    // whitespace follows the open block's last word
	rejoin bool    // a token's first bytes may complete the last rune before it
	words  int
	linked int
	depth  int
	inLink int // open <a> elements
	skip   int // open script/style elements
	tag    string
	curTag string
}

func (b *builder) token(t Token) {
	switch t.Type {
	case StartTag:
		c := classOf(t.Name)
		if c&clsRaw != 0 {
			if !t.SelfClosing {
				b.skip++
			}
			return
		}
		if t.Name == "a" {
			b.inLink++
		}
		if c&clsBlock != 0 {
			b.flush()
			b.tag = t.Name
			b.curTag = t.Name
		}
		if !t.SelfClosing && c&clsVoid == 0 {
			b.depth++
		}
	case EndTag:
		c := classOf(t.Name)
		if c&clsRaw != 0 {
			if b.skip > 0 {
				b.skip--
			}
			return
		}
		if t.Name == "a" && b.inLink > 0 {
			b.inLink--
		}
		if c&clsBlock != 0 {
			b.flush()
		}
		if b.depth > 0 {
			b.depth--
		}
	case Text:
		if b.skip == 0 {
			b.write(t.Data)
		}
	}
}

// write appends one text token to the open block.
func (b *builder) write(data string) {
	// Normalizing per token is normalizing the block unless two tokens'
	// stray bytes join into one rune, which can be a space: flush then
	// normalizes the block again.
	if data != "" && !utf8.RuneStart(data[0]) && !b.gap && len(b.buf) > b.start && b.buf[len(b.buf)-1] >= utf8.RuneSelf {
		b.rejoin = true
	}
	words, inWord := 0, false
	for i := 0; i < len(data); {
		// A word's ASCII bytes are written in one run; anything else
		// (whitespace, an entity, a non-ASCII rune) one rune at a time.
		j := i
		for j < len(data) && byteClass[data[j]] == bWord {
			j++
		}
		word, space := data[i:j], false
		if j == i {
			switch byteClass[data[i]] {
			case bSpace:
				j, space = i+1, true
			case bAmp:
				ref, val := entityAt(data[i:])
				j, word, space = i+len(ref), val, val == " "
			default:
				r, size := utf8.DecodeRuneInString(data[i:])
				j = i + size
				word, space = data[i:j], unicode.IsSpace(r)
			}
		}
		i = j
		if space {
			inWord, b.gap = false, len(b.buf) > b.start
			continue
		}
		if !inWord {
			words++
			inWord = true
		}
		if b.gap {
			b.buf, b.gap = append(b.buf, ' '), false
		}
		b.buf = append(b.buf, word...)
	}
	if words == 0 {
		// Pure whitespace, or an empty token: keep a single separator.
		b.gap = len(b.buf) > b.start
		return
	}
	b.words += words
	if b.inLink > 0 {
		b.linked += words
	}
}

// flush closes the open block; a block with no text is dropped. A block
// whose tokens' bytes may have joined into one rune is normalized again,
// in place.
func (b *builder) flush() {
	if b.rejoin {
		b.buf = b.buf[:b.start+squeeze(b.buf[b.start:])]
	}
	if len(b.buf) > b.start {
		b.blocks = append(b.blocks, Block{Words: b.words, LinkedWords: b.linked, Tag: b.curTag, Depth: b.depth})
		b.buf = append(b.buf, '\n')
		b.start = len(b.buf)
	}
	b.gap, b.rejoin = false, false
	b.words, b.linked = 0, 0
	b.curTag = b.tag
}

// text returns the finished blocks' texts joined by newlines.
func (b *builder) text() string {
	if len(b.buf) == 0 {
		return ""
	}
	return string(b.buf[:len(b.buf)-1])
}

// done returns the finished blocks in a slice of their own, each Text a
// line of text().
func (b *builder) done() []Block {
	if len(b.blocks) == 0 {
		return nil
	}
	out := make([]Block, len(b.blocks))
	rest := b.text()
	for i := range out {
		out[i] = b.blocks[i]
		out[i].Text, rest, _ = strings.Cut(rest, "\n")
	}
	return out
}

// The classes of a text byte, as the writer treats it.
const (
	bWord  = iota // ASCII, neither whitespace nor '&'
	bSpace        // ASCII whitespace
	bAmp          // '&', which may start an entity
	bHigh         // the first byte of a non-ASCII rune, or an invalid byte
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = bHigh
		case c == '&':
			t[c] = bAmp
		case c == ' ' || c >= '\t' && c <= '\r':
			t[c] = bSpace
		}
	}
	return t
}()
