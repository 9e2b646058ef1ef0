// Package mimetype implements MIME type detection as used by the crawler's
// pre-filter (§2.1) — the Apache Tika substitute. Detection combines magic
// bytes, file-name extension, and a content heuristic, because each alone
// is unreliable: the paper singles out "reliable MIME-type detection" as an
// open problem (§5: large binary files masquerading as text slip through
// name-based detection).
package mimetype

import (
	"bytes"
	"strings"
)

// Type is a detected MIME type.
type Type string

// The types the synthetic web can serve.
const (
	HTML    Type = "text/html"
	Plain   Type = "text/plain"
	PDF     Type = "application/pdf"
	Zip     Type = "application/zip"
	GIF     Type = "image/gif"
	PNG     Type = "image/png"
	JPEG    Type = "image/jpeg"
	MSWord  Type = "application/msword"
	Unknown Type = "application/octet-stream"
)

// IsTextual reports whether the type carries extractable text.
func (t Type) IsTextual() bool { return t == HTML || t == Plain }

// byExtension maps URL path extensions to types.
var byExtension = map[string]Type{
	".html": HTML, ".htm": HTML, ".txt": Plain, ".pdf": PDF, ".zip": Zip,
	".gif": GIF, ".png": PNG, ".jpg": JPEG, ".jpeg": JPEG, ".doc": MSWord,
}

// magic prefixes, checked in order.
var magic = []struct {
	prefix string
	t      Type
}{
	{"%PDF-", PDF},
	{"PK\x03\x04", Zip},
	{"GIF87a", GIF},
	{"GIF89a", GIF},
	{"\x89PNG\r\n\x1a\n", PNG},
	{"\xff\xd8\xff", JPEG},
	{"\xd0\xcf\x11\xe0", MSWord},
}

// FromExtension detects by URL path alone (the cheap first-pass method).
// The extension is what follows the last dot of the last path segment;
// dots in the query, the fragment or a directory name are not extensions.
func FromExtension(path string) (Type, bool) {
	if q := strings.IndexAny(path, "?#"); q >= 0 {
		path = path[:q]
	}
	dot := strings.LastIndexByte(path, '.')
	if dot <= strings.LastIndexByte(path, '/') { // equal only when both are -1
		return Unknown, false
	}
	t, ok := byExtension[strings.ToLower(path[dot:])]
	return t, ok
}

// Sniff detects from content bytes: magic prefixes first, then an HTML
// probe, then a binary-vs-text heuristic over the first window. The probes
// fold ASCII case on the bytes in place; no other rune lower-cases to a
// probe's letters (U+0130 and the Kelvin sign fold to 'i' and 'k'), so
// this is strings.ToLower's verdict without its copy.
func Sniff(content []byte) Type {
	head := content
	if len(head) > 512 {
		head = head[:512]
	}
	for _, m := range magic {
		if len(head) >= len(m.prefix) && string(head[:len(m.prefix)]) == m.prefix {
			return m.t
		}
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	if hasPrefixFold(trimmed, "<!doctype html") || hasPrefixFold(trimmed, "<html") ||
		containsFold(trimmed, "<body") || containsFold(trimmed, "<head") {
		return HTML
	}
	// Binary heuristic: control bytes (outside tab/LF/CR) imply binary.
	binary := 0
	for i := 0; i < len(head); i++ {
		c := head[i]
		if c < 9 || (c > 13 && c < 32) || c == 127 {
			binary++
		}
	}
	if len(head) == 0 {
		return Unknown
	}
	if float64(binary)/float64(len(head)) > 0.02 {
		return Unknown
	}
	if bytes.IndexByte(head, '<') >= 0 && bytes.IndexByte(head, '>') >= 0 {
		return HTML
	}
	return Plain
}

// hasPrefixFold reports whether b starts with pat, a lower-case ASCII
// string, folding ASCII case in b.
func hasPrefixFold(b []byte, pat string) bool {
	if len(b) < len(pat) {
		return false
	}
	for i := 0; i < len(pat); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != pat[i] {
			return false
		}
	}
	return true
}

// containsFold reports whether b holds pat, a lower-case ASCII string
// starting with '<', folding ASCII case in b.
func containsFold(b []byte, pat string) bool {
	for {
		i := bytes.IndexByte(b, '<')
		if i < 0 {
			return false
		}
		if hasPrefixFold(b[i:], pat) {
			return true
		}
		b = b[i+1:]
	}
}

// Detect combines extension and content sniffing: content wins on conflict
// (the Tika lesson: extensions lie; §5).
func Detect(path string, content []byte) Type {
	sniffed := Sniff(content)
	if sniffed != Plain && sniffed != Unknown {
		return sniffed
	}
	if ext, ok := FromExtension(path); ok && sniffed == Plain && !ext.IsTextual() {
		// Extension claims binary but content looks like text: distrust the
		// extension only if the content is decisively textual, which Plain
		// already asserts.
		return Plain
	}
	if sniffed == Unknown {
		if ext, ok := FromExtension(path); ok {
			return ext
		}
	}
	return sniffed
}
