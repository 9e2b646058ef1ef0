// Package htmlkit implements the web-analytics (WA) primitives the paper's
// data flow needs before any linguistic processing can start: an HTML
// tokenizer that survives the malformed markup dominating the real web
// ("95% of HTML documents on the web do not adhere to W3C HTML standards",
// §5 citing [19]), a markup repair pass, markup removal, and link
// extraction.
//
// The tokenizer is hand-written (stdlib only) and never fails: any byte
// sequence produces a token stream. Repair is performed structurally on the
// token stream (implied end tags, unclosed elements, stray close tags), the
// strategy used by browser parsers and by the W3C-"tidy" class of tools.
//
// One streaming core does the work: a lexer that yields tokens by value as
// spans of the source, the repair stack fed one token at a time, and a
// block builder writing decoded, normalized text into one pooled buffer.
// Parse runs the three in one pass and hands the same raw tokens to a link
// and title collector, so a web page is lexed once; Blocks runs the three
// alone, for the crawler; Tokenize, Repair and ExtractBlocks run them one
// at a time, with token slices between them.
package htmlkit

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenType distinguishes the kinds of tokens the tokenizer emits.
type TokenType int

const (
	// Text is character data between tags.
	Text TokenType = iota
	// StartTag is an opening tag, possibly self-closing.
	StartTag
	// EndTag is a closing tag.
	EndTag
	// Comment is an HTML comment.
	Comment
	// Doctype is a <!DOCTYPE ...> declaration.
	Doctype
)

// Token is one lexical unit of an HTML document.
type Token struct {
	Type TokenType
	// Name is the lower-cased tag name for StartTag/EndTag.
	Name string
	// Data is the text content (Text, Comment) or raw declaration (Doctype).
	Data string
	// Attrs holds attributes for StartTag in document order.
	Attrs []Attr
	// SelfClosing marks <br/>-style tags.
	SelfClosing bool
}

// Attr is one tag attribute.
type Attr struct {
	Key, Val string
}

// Attr returns the value of the named attribute on a start tag.
func (t *Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// What the repairer and the block builder need to know of an element.
const (
	clsVoid  = 1 << iota // never takes an end tag
	clsRaw               // swallows everything until its literal end tag
	clsBlock             // introduces a block boundary when extracting text
)

// classOf returns the class bits of a lower-cased tag name.
func classOf(name string) uint8 {
	switch name {
	case "area", "base", "col", "embed", "img", "input", "link", "meta",
		"param", "source", "track", "wbr":
		return clsVoid
	case "br", "hr":
		return clsVoid | clsBlock
	case "script", "style":
		return clsRaw
	case "address", "article", "aside", "blockquote", "body", "div", "dl",
		"dt", "dd", "fieldset", "figure", "footer", "form", "h1", "h2", "h3",
		"h4", "h5", "h6", "header", "li", "main", "nav", "ol", "p", "pre",
		"section", "table", "td", "th", "tr", "ul", "title":
		return clsBlock
	}
	return 0
}

// opens reports whether a start tag pushes an element the repairer must
// close.
func opens(t *Token) bool { return !t.SelfClosing && classOf(t.Name)&clsVoid == 0 }

// Tokenize lexes raw HTML into tokens. It never returns an error: malformed
// input degrades to text tokens, mirroring browser behaviour. A counting
// pass sizes the token slice and the one attribute array all tokens share.
func Tokenize(html string) []Token {
	count := lexer{src: html}
	n := 0
	for _, ok := count.next(); ok; _, ok = count.next() {
		n++
	}
	if n == 0 {
		return nil
	}
	l := lexer{src: html, attrs: make([]Attr, 0, count.nattr)}
	out := make([]Token, 0, n)
	for t, ok := l.next(); ok; t, ok = l.next() {
		out = append(out, t)
	}
	return out
}

// lexer yields the tokens of src one at a time, by value: Data, and Name
// wherever it needs no case folding, are substrings of src. Attributes are
// counted always and built only into the spare capacity of attrs, which a
// caller sizes from a counting pass, so the tokens share one array.
type lexer struct {
	src   string
	pos   int
	raw   string // the raw-text element whose end tag is the next token
	attrs []Attr
	nattr int
}

func (l *lexer) next() (Token, bool) {
	if l.raw != "" {
		t := Token{Type: EndTag, Name: l.raw}
		l.raw = ""
		return t, true
	}
	s, i, n := l.src, l.pos, len(l.src)
	if i >= n {
		return Token{}, false
	}
	if s[i] != '<' {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			j = n - i
		}
		l.pos = i + j
		return Token{Type: Text, Data: s[i : i+j]}, true
	}
	if i+1 >= n {
		l.pos = n
		return Token{Type: Text, Data: "<"}, true
	}
	switch c := s[i+1]; {
	case strings.HasPrefix(s[i:], "<!--"):
		end := strings.Index(s[i+4:], "-->")
		if end < 0 {
			l.pos = n
			return Token{Type: Comment, Data: s[i+4:]}, true
		}
		l.pos = i + 4 + end + 3
		return Token{Type: Comment, Data: s[i+4 : i+4+end]}, true
	case c == '!' || c == '?' || c == '/':
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			// Unterminated declaration or close tag: the rest is text
			// (repair later).
			l.pos = n
			return Token{Type: Text, Data: s[i:]}, true
		}
		l.pos = i + end + 1
		if c != '/' {
			return Token{Type: Doctype, Data: s[i : i+end+1]}, true
		}
		if name := endTagName(s[i+2 : i+end]); name != "" {
			return Token{Type: EndTag, Name: name}, true
		}
		return Token{Type: Text, Data: s[i : i+end+1]}, true
	case isNameStart(c):
		return l.startTag(), true
	}
	// '<' followed by a non-name char: literal text.
	l.pos = i + 1
	return Token{Type: Text, Data: "<"}, true
}

// endTagName returns the lower-cased name of an end tag whose inside
// (between "</" and ">") is s, or "" if it has none. The name is the first
// whitespace-separated field, and it must lower-case to ASCII letters,
// digits and '-': besides A-Z, only U+0130 (to "i") and the Kelvin sign
// U+212A (to "k") do, so only those take strings.ToLower's copy.
func endTagName(s string) string {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if sp := strings.IndexFunc(s, unicode.IsSpace); sp >= 0 {
		s = s[:sp]
	}
	fold := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-':
		case c >= 'A' && c <= 'Z':
			fold = true
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r != '\u0130' && r != '\u212A' {
				return ""
			}
			fold, i = true, i+size-1
		}
	}
	if fold {
		return strings.ToLower(s)
	}
	return s
}

// startTag lexes the start tag at l.pos, where src holds '<' and a letter.
// Unterminated tags consume to EOF. A script or style element's content is
// skipped up to its end tag, which becomes the next token.
func (l *lexer) startTag() Token {
	s, n := l.src, len(l.src)
	j := l.pos + 1
	for j < n && (isNameStart(s[j]) || s[j] >= '0' && s[j] <= '9' || s[j] == '-') {
		j++
	}
	t := Token{Type: StartTag, Name: strings.ToLower(s[l.pos+1 : j])}
	first := len(l.attrs)
	j = l.attributes(&t, j)
	if len(l.attrs) > first {
		t.Attrs = l.attrs[first:len(l.attrs):len(l.attrs)]
	}
	if !t.SelfClosing && classOf(t.Name)&clsRaw != 0 {
		if idx := indexCloseTag(s[j:], t.Name); idx < 0 {
			j = n // unclosed script/style: swallow the rest
		} else {
			l.raw = t.Name
			if gt := strings.IndexByte(s[j+idx:], '>'); gt < 0 {
				j = n
			} else {
				j += idx + gt + 1
			}
		}
	}
	l.pos = j
	return t
}

// attributes lexes the attributes of t from s[j:] and returns the index
// just past the tag.
func (l *lexer) attributes(t *Token, j int) int {
	s, n := l.src, len(l.src)
	for j < n {
		for j < n && (s[j] == ' ' || s[j] == '\t' || s[j] == '\n' || s[j] == '\r') {
			j++
		}
		if j >= n {
			return n
		}
		switch s[j] {
		case '>':
			return j + 1
		case '/':
			if j+1 < n && s[j+1] == '>' {
				t.SelfClosing = true
				return j + 2
			}
			j++
			continue
		case '<':
			// Broken tag: a new tag starts before this one closed. Repair by
			// implicitly closing here — the common real-world breakage.
			return j
		}
		ks := j
		for j < n && s[j] != '=' && s[j] != ' ' && s[j] != '\t' &&
			s[j] != '\n' && s[j] != '>' && s[j] != '/' && s[j] != '<' {
			j++
		}
		key := s[ks:j]
		val := ""
		if j < n && s[j] == '=' {
			j++
			vs := j
			if j < n && (s[j] == '"' || s[j] == '\'') {
				q := s[j]
				j++
				vs = j
				for j < n && s[j] != q {
					j++
				}
				val = s[vs:j]
				if j < n {
					j++
				}
			} else {
				for j < n && s[j] != ' ' && s[j] != '>' && s[j] != '\t' && s[j] != '\n' {
					j++
				}
				val = s[vs:j]
			}
		}
		if key != "" {
			l.nattr++
			if len(l.attrs) < cap(l.attrs) {
				l.attrs = append(l.attrs, Attr{Key: strings.ToLower(key), Val: val})
			}
		}
	}
	return n
}

// indexCloseTag returns the offset of the first "</name" in s, or -1.
// name is lower-case ASCII letters; the match folds ASCII case only and
// scans the original bytes, so the offset is valid in s whatever else s
// holds (strings.ToLower changes the length of invalid UTF-8 and of 'K').
func indexCloseTag(s, name string) int {
	for i := 0; ; i += 2 {
		j := strings.Index(s[i:], "</")
		if j < 0 || len(s)-(i+j+2) < len(name) {
			return -1
		}
		i += j
		k := 0
		for k < len(name) && s[i+2+k]|0x20 == name[k] {
			k++
		}
		if k == len(name) {
			return i
		}
	}
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// entities are the character references the decoder resolves. A match is
// replaced once, left to right: "&amp;lt;" decodes to "&lt;".
var entities = [...]struct{ ref, val string }{
	{"&amp;", "&"}, {"&lt;", "<"}, {"&gt;", ">"}, {"&quot;", `"`}, {"&apos;", "'"},
	{"&nbsp;", " "}, {"&#39;", "'"}, {"&mdash;", "—"}, {"&ndash;", "–"},
}

// entityAt returns the entity s starts with and its value; an '&' that
// starts none stands for itself.
func entityAt(s string) (ref, val string) {
	for _, e := range entities {
		if strings.HasPrefix(s, e.ref) {
			return e.ref, e.val
		}
	}
	return "&", "&"
}
