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
package htmlkit

import "strings"

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

// voidElements never take end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow everything until their literal end tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// blockElements introduce block boundaries when extracting text.
var blockElements = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"body": true, "div": true, "dl": true, "dt": true, "dd": true,
	"fieldset": true, "figure": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "li": true, "main": true, "nav": true,
	"ol": true, "p": true, "pre": true, "section": true, "table": true,
	"td": true, "th": true, "tr": true, "ul": true, "br": true, "title": true,
}

// IsBlock reports whether the tag introduces a block boundary.
func IsBlock(name string) bool { return blockElements[name] }

// Tokenize lexes raw HTML into tokens. It never returns an error: malformed
// input degrades to text tokens, mirroring browser behaviour.
func Tokenize(html string) []Token {
	var out []Token
	i := 0
	n := len(html)
	for i < n {
		if html[i] != '<' {
			j := strings.IndexByte(html[i:], '<')
			if j < 0 {
				out = append(out, Token{Type: Text, Data: html[i:]})
				break
			}
			out = append(out, Token{Type: Text, Data: html[i : i+j]})
			i += j
			continue
		}
		// At '<'.
		if i+1 >= n {
			out = append(out, Token{Type: Text, Data: "<"})
			break
		}
		switch {
		case strings.HasPrefix(html[i:], "<!--"):
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				out = append(out, Token{Type: Comment, Data: html[i+4:]})
				i = n
			} else {
				out = append(out, Token{Type: Comment, Data: html[i+4 : i+4+end]})
				i += 4 + end + 3
			}
		case html[i+1] == '!' || html[i+1] == '?':
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				out = append(out, Token{Type: Text, Data: html[i:]})
				i = n
			} else {
				out = append(out, Token{Type: Doctype, Data: html[i : i+end+1]})
				i += end + 1
			}
		case html[i+1] == '/':
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				// Unterminated close tag: treat rest as text (repair later).
				out = append(out, Token{Type: Text, Data: html[i:]})
				i = n
			} else {
				name := strings.ToLower(strings.TrimSpace(html[i+2 : i+end]))
				name = strings.Fields(name + " x")[0] // tolerate junk after the name
				if name == "x" {
					name = ""
				}
				if name != "" && isTagName(name) {
					out = append(out, Token{Type: EndTag, Name: name})
				} else {
					out = append(out, Token{Type: Text, Data: html[i : i+end+1]})
				}
				i += end + 1
			}
		case isNameStart(html[i+1]):
			tok, next := lexStartTag(html, i)
			out = append(out, tok)
			i = next
			// Raw-text elements consume to their matching end tag.
			if tok.Type == StartTag && rawTextElements[tok.Name] && !tok.SelfClosing {
				idx := indexCloseTag(html[i:], tok.Name)
				if idx < 0 {
					// Unclosed script/style: swallow the rest.
					i = n
				} else {
					gt := strings.IndexByte(html[i+idx:], '>')
					out = append(out, Token{Type: EndTag, Name: tok.Name})
					if gt < 0 {
						i = n
					} else {
						i += idx + gt + 1
					}
				}
			}
		default:
			// '<' followed by a non-name char: literal text.
			out = append(out, Token{Type: Text, Data: "<"})
			i++
		}
	}
	return out
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

func isTagName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			return false
		}
	}
	return len(s) > 0
}

// lexStartTag lexes a start tag beginning at html[i] == '<'. It returns the
// token and the index just past the tag. Unterminated tags consume to EOF.
func lexStartTag(html string, i int) (Token, int) {
	n := len(html)
	j := i + 1
	for j < n && (isNameStart(html[j]) || html[j] >= '0' && html[j] <= '9' || html[j] == '-') {
		j++
	}
	tok := Token{Type: StartTag, Name: strings.ToLower(html[i+1 : j])}
	// Attributes.
	for j < n {
		for j < n && (html[j] == ' ' || html[j] == '\t' || html[j] == '\n' || html[j] == '\r') {
			j++
		}
		if j >= n {
			return tok, n
		}
		if html[j] == '>' {
			return tok, j + 1
		}
		if html[j] == '/' {
			if j+1 < n && html[j+1] == '>' {
				tok.SelfClosing = true
				return tok, j + 2
			}
			j++
			continue
		}
		if html[j] == '<' {
			// Broken tag: a new tag starts before this one closed. Repair by
			// implicitly closing here — the common real-world breakage.
			return tok, j
		}
		// Attribute name.
		ks := j
		for j < n && html[j] != '=' && html[j] != ' ' && html[j] != '\t' &&
			html[j] != '\n' && html[j] != '>' && html[j] != '/' && html[j] != '<' {
			j++
		}
		key := strings.ToLower(html[ks:j])
		val := ""
		if j < n && html[j] == '=' {
			j++
			if j < n && (html[j] == '"' || html[j] == '\'') {
				q := html[j]
				j++
				vs := j
				for j < n && html[j] != q {
					j++
				}
				val = html[vs:j]
				if j < n {
					j++
				}
			} else {
				vs := j
				for j < n && html[j] != ' ' && html[j] != '>' && html[j] != '\t' && html[j] != '\n' {
					j++
				}
				val = html[vs:j]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: val})
		}
	}
	return tok, n
}

// entity replacements for the handful of entities the generators emit.
var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&apos;", "'",
	"&nbsp;", " ", "&#39;", "'", "&mdash;", "—", "&ndash;", "–",
)

// DecodeEntities resolves common character references.
func DecodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}
