package mimetype

import (
	"strings"
	"testing"
)

func TestFromExtension(t *testing.T) {
	cases := map[string]Type{
		"/page.html": HTML, "/doc.HTM": HTML, "/a/b/readme.txt": Plain,
		"/paper.pdf": PDF, "/x.zip": Zip, "/img.png": PNG, "/p.jpg": JPEG,
		// A dot in the query or fragment does not hide the extension.
		"/x/paper.pdf?rev=1.2": PDF, "/x/paper.pdf#sec.2": PDF,
	}
	for path, want := range cases {
		got, ok := FromExtension(path)
		if !ok || got != want {
			t.Errorf("FromExtension(%q) = %v/%v, want %v", path, got, ok, want)
		}
	}
	for _, path := range []string{"/noext", "noext", "/dir.v2/page", "/dir.pdf/page?x=.pdf"} {
		if _, ok := FromExtension(path); ok {
			t.Errorf("FromExtension(%q): extension found where none exists", path)
		}
	}
	if _, ok := FromExtension("/weird.xyz123"); ok {
		t.Error("unknown extension mapped")
	}
}

func TestSniffMagic(t *testing.T) {
	cases := map[string]Type{
		"%PDF-1.4 blah":                                   PDF,
		"PK\x03\x04contents":                              Zip,
		"GIF89a....":                                      GIF,
		"\x89PNG\r\n\x1a\nrest":                           PNG,
		"\xff\xd8\xffjpegdata":                            JPEG,
		"\xd0\xcf\x11\xe0worddoc":                         MSWord,
		"<!DOCTYPE html><html></html>":                    HTML,
		"  \n<html><body>x":                               HTML,
		"Just some plain text without any markup at all.": Plain,
	}
	for content, want := range cases {
		if got := Sniff([]byte(content)); got != want {
			t.Errorf("Sniff(%q...) = %v, want %v", content[:min(12, len(content))], got, want)
		}
	}
}

func TestSniffBinary(t *testing.T) {
	bin := make([]byte, 200)
	for i := range bin {
		bin[i] = byte(i % 7) // lots of control bytes
	}
	if got := Sniff(bin); got != Unknown {
		t.Errorf("Sniff(binary) = %v, want Unknown", got)
	}
}

func TestSniffEmpty(t *testing.T) {
	if got := Sniff(nil); got != Unknown {
		t.Errorf("Sniff(nil) = %v", got)
	}
}

func TestDetectContentBeatsExtension(t *testing.T) {
	// §5 pathology: a binary PDF served under a .html name must be caught.
	pdf := []byte("%PDF-1.5 binary payload")
	if got := Detect("/download/page.html", pdf); got != PDF {
		t.Errorf("Detect(.html with PDF magic) = %v, want PDF", got)
	}
	// And an HTML page under a .pdf name is still HTML.
	html := []byte("<html><body>actual page</body></html>")
	if got := Detect("/files/report.pdf", html); got != HTML {
		t.Errorf("Detect(.pdf with HTML content) = %v, want HTML", got)
	}
}

func TestDetectFallsBackToExtension(t *testing.T) {
	// Content inconclusive (empty) → extension decides.
	if got := Detect("/img/logo.png", nil); got != PNG {
		t.Errorf("Detect(empty .png) = %v, want PNG", got)
	}
}

func TestIsTextual(t *testing.T) {
	if !HTML.IsTextual() || !Plain.IsTextual() {
		t.Error("HTML/Plain should be textual")
	}
	for _, tt := range []Type{PDF, Zip, GIF, PNG, JPEG, MSWord, Unknown} {
		if tt.IsTextual() {
			t.Errorf("%v should not be textual", tt)
		}
	}
}

func TestSniffLongInputBounded(t *testing.T) {
	long := strings.Repeat("plain text ", 100000)
	if got := Sniff([]byte(long)); got != Plain {
		t.Errorf("Sniff(long text) = %v", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzDetect: Detect never panics, answers with one of the declared
// types, and reads one sniff window — bytes past it change nothing; and
// Sniff, which folds case in place, gives its predecessor's verdict.
func FuzzDetect(f *testing.F) {
	f.Add("/p1.html", []byte("<!DOCTYPE html>\n<html><head><title>Beta receptor</title></head><body><p>Alpha binds."))
	f.Add("/x/paper.pdf?rev=1.2", []byte("%PDF-1.4 binary"))
	f.Add("/dir.v2/page", []byte("Alpha binds the beta receptor in approx. 1.5 hours."))
	f.Add("/img.png#a.b", []byte("\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR"))
	f.Add("", []byte{})
	f.Add("/blob.zip", []byte(strings.Repeat("\x00\x01 text", 120)))
	f.Add("/p", []byte("  <!DocType HTML><P>x"))
	f.Add("/p", []byte("text \u212A\u0130 <HeAd> <\xc4\xb0body>"))
	f.Add("/p", []byte("\xff\xfe<Html \xe2\x84\xaa> x"))
	declared := map[Type]bool{HTML: true, Plain: true, PDF: true, Zip: true, GIF: true,
		PNG: true, JPEG: true, MSWord: true, Unknown: true}
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		if got, want := Sniff(body), refSniff(body); got != want {
			t.Fatalf("Sniff(%q) = %q, its predecessor says %q", body, got, want)
		}
		got := Detect(path, body)
		if !declared[got] {
			t.Fatalf("Detect(%q, %q) = %q: not a declared type", path, body, got)
		}
		if window := Detect(path, body[:min(len(body), 512)]); window != got {
			t.Fatalf("Detect(%q, …) = %q on %d bytes, %q on the first 512", path, got, len(body), window)
		}
	})
}
