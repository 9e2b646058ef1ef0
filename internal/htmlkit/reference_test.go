package htmlkit

// The predecessor of the streaming core: the token-slice tokenizer, repair
// pass and block builder as they were before the rewrite (with the "</x>"
// fix), kept verbatim as the oracle every differential test and fuzz
// target compares against. Nothing outside tests calls it.

import (
	"strings"
	"unicode"
)

// refVoid are the elements that never take end tags.
var refVoid = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// refRawText are the elements that swallow everything until their literal end tag.
var refRawText = map[string]bool{"script": true, "style": true}

// refBlock are the elements that introduce block boundaries when extracting text.
var refBlock = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"body": true, "div": true, "dl": true, "dt": true, "dd": true,
	"fieldset": true, "figure": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "li": true, "main": true, "nav": true,
	"ol": true, "p": true, "pre": true, "section": true, "table": true,
	"td": true, "th": true, "tr": true, "ul": true, "br": true, "title": true,
}

// refTokenize lexes raw HTML into tokens. It never returns an error: malformed
// input degrades to text tokens, mirroring browser behaviour.
func refTokenize(html string) []Token {
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
				if sp := strings.IndexFunc(name, unicode.IsSpace); sp >= 0 {
					name = name[:sp] // tolerate junk after the name
				}
				if refIsTagName(name) {
					out = append(out, Token{Type: EndTag, Name: name})
				} else {
					out = append(out, Token{Type: Text, Data: html[i : i+end+1]})
				}
				i += end + 1
			}
		case refIsNameStart(html[i+1]):
			tok, next := refLexStartTag(html, i)
			out = append(out, tok)
			i = next
			// Raw-text elements consume to their matching end tag.
			if tok.Type == StartTag && refRawText[tok.Name] && !tok.SelfClosing {
				idx := refIndexCloseTag(html[i:], tok.Name)
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

// refIndexCloseTag returns the offset of the first "</name" in s, or -1.
// name is lower-case ASCII letters; the match folds ASCII case only and
// scans the original bytes, so the offset is valid in s whatever else s
// holds (strings.ToLower changes the length of invalid UTF-8 and of 'K').
func refIndexCloseTag(s, name string) int {
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

func refIsNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func refIsTagName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			return false
		}
	}
	return len(s) > 0
}

// refLexStartTag lexes a start tag beginning at html[i] == '<'. It returns the
// token and the index just past the tag. Unterminated tags consume to EOF.
func refLexStartTag(html string, i int) (Token, int) {
	n := len(html)
	j := i + 1
	for j < n && (refIsNameStart(html[j]) || html[j] >= '0' && html[j] <= '9' || html[j] == '-') {
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
			// Broken tag: a new tag starts before this one closed. refRepair by
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

// refRepair normalizes a token stream into a well-formed one: every start tag
// is eventually closed, stray end tags are dropped, and misnested end tags
// implicitly close the intervening elements (the browser algorithm).
func refRepair(tokens []Token) ([]Token, RepairStats) {
	var out []Token
	var stack []string
	var stats RepairStats
	for _, t := range tokens {
		switch t.Type {
		case StartTag:
			out = append(out, t)
			if !t.SelfClosing && !refVoid[t.Name] {
				stack = append(stack, t.Name)
			}
		case EndTag:
			// Find the matching open element.
			idx := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == t.Name {
					idx = i
					break
				}
			}
			if idx < 0 {
				stats.StrayEndTags++
				continue // drop stray end tag
			}
			// Implicitly close everything above the match.
			for i := len(stack) - 1; i > idx; i-- {
				out = append(out, Token{Type: EndTag, Name: stack[i]})
				stats.MisnestedTags++
			}
			out = append(out, Token{Type: EndTag, Name: t.Name})
			stack = stack[:idx]
		default:
			out = append(out, t)
		}
	}
	// Close everything still open.
	for i := len(stack) - 1; i >= 0; i-- {
		out = append(out, Token{Type: EndTag, Name: stack[i]})
		stats.UnclosedTags++
	}
	return out, stats
}

// refExtractBlocks segments repaired tokens into text blocks with the shallow
// features boilerplate detection needs. Script/style content never reaches
// the blocks (the tokenizer marks those elements; their text is skipped).
func refExtractBlocks(tokens []Token) []Block {
	var blocks []Block
	var cur strings.Builder
	curWords, curLinked := 0, 0
	depth, linkDepth := 0, 0
	skip := 0 // inside script/style
	tag := "body"
	curTag := tag

	flush := func() {
		text := refNormalizeSpace(cur.String())
		if text != "" {
			blocks = append(blocks, Block{
				Text: text, Words: curWords, LinkedWords: curLinked,
				Tag: curTag, Depth: depth,
			})
		}
		cur.Reset()
		curWords, curLinked = 0, 0
		curTag = tag
	}

	for _, t := range tokens {
		switch t.Type {
		case StartTag:
			if refRawText[t.Name] {
				if !t.SelfClosing {
					skip++
				}
				continue
			}
			if t.Name == "a" {
				linkDepth++
			}
			if refBlock[t.Name] {
				flush()
				tag = t.Name
				curTag = tag
			}
			if !t.SelfClosing && !refVoid[t.Name] {
				depth++
			}
		case EndTag:
			if refRawText[t.Name] {
				if skip > 0 {
					skip--
				}
				continue
			}
			if t.Name == "a" && linkDepth > 0 {
				linkDepth--
			}
			if refBlock[t.Name] {
				flush()
			}
			if depth > 0 {
				depth--
			}
		case Text:
			if skip > 0 {
				continue
			}
			text := refDecodeEntities(t.Data)
			words := len(strings.Fields(text))
			if words == 0 && strings.TrimSpace(text) == "" {
				// Pure whitespace: keep a single separator.
				if cur.Len() > 0 {
					cur.WriteByte(' ')
				}
				continue
			}
			cur.WriteString(text)
			curWords += words
			if linkDepth > 0 {
				curLinked += words
			}
		}
	}
	flush()
	return blocks
}

// refNormalizeSpace collapses runs of whitespace to single spaces and trims.
func refNormalizeSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// refStripMarkup is the "remove all markup" operator: tokenize, repair, and
// concatenate all text blocks. This is the fallback when boilerplate
// detection is disabled.
func refStripMarkup(html string) string {
	tokens, _ := refRepair(refTokenize(html))
	blocks := refExtractBlocks(tokens)
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		parts[i] = b.Text
	}
	return strings.Join(parts, "\n")
}

// refEntityReplacer is the predecessor's entity decoder: one left-to-right,
// non-recursive pass over the nine entities.
var refEntityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&apos;", "'",
	"&nbsp;", " ", "&#39;", "'", "&mdash;", "—", "&ndash;", "–",
)

func refDecodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return refEntityReplacer.Replace(s)
}

// DecodeEntities resolves common character references: appendDecoded as a
// string function, the shape the entity tests compare.
func DecodeEntities(s string) string { return string(appendDecoded(nil, s)) }

// ExtractLinks and Title are the token-slice link and title extractors
// Parse replaced, kept as the oracle for Page.Links and Page.Title over
// Tokenize's raw stream; they decode and normalize with the predecessor's
// helpers.

// ExtractLinks returns every <a href=...> link with its anchor text.
func ExtractLinks(tokens []Token) []Link {
	var links []Link
	var anchor strings.Builder
	href := ""
	inA := false
	for _, t := range tokens {
		switch t.Type {
		case StartTag:
			if t.Name == "a" {
				if inA && href != "" {
					links = append(links, Link{Href: href, Anchor: refNormalizeSpace(anchor.String())})
				}
				inA = true
				href, _ = t.Attr("href")
				anchor.Reset()
			}
		case EndTag:
			if t.Name == "a" && inA {
				if href != "" {
					links = append(links, Link{Href: href, Anchor: refNormalizeSpace(anchor.String())})
				}
				inA = false
				href = ""
				anchor.Reset()
			}
		case Text:
			if inA {
				anchor.WriteString(refDecodeEntities(t.Data))
			}
		}
	}
	if inA && href != "" {
		links = append(links, Link{Href: href, Anchor: refNormalizeSpace(anchor.String())})
	}
	return links
}

// Title returns the contents of the first <title> element, if any.
func Title(tokens []Token) string {
	inTitle := false
	var b strings.Builder
	for _, t := range tokens {
		switch t.Type {
		case StartTag:
			if t.Name == "title" {
				inTitle = true
			}
		case EndTag:
			if t.Name == "title" {
				return refNormalizeSpace(b.String())
			}
		case Text:
			if inTitle {
				b.WriteString(refDecodeEntities(t.Data))
			}
		}
	}
	return refNormalizeSpace(b.String())
}
