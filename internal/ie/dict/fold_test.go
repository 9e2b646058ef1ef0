package dict

import (
	"strings"
	"testing"

	"webtextie/internal/rng"
)

// TestASCIIFoldEquivalence pins the equivalence the zero-alloc fast path
// rests on: for ASCII text, scanning through the case-folding byte classes
// produces exactly the matches of scanning a strings.ToLower copy.
func TestASCIIFoldEquivalence(t *testing.T) {
	m := Build("t", []string{"Alpha", "BETA-max", "a1"}, DefaultOptions())
	r := rng.New(97)
	for trial := 0; trial < 200; trial++ {
		text := randomText(r, 3+r.Intn(40))
		fast := m.scan(nil, text, text, nil)
		slow := m.scan(nil, text, strings.ToLower(text), nil)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: %d vs %d raw matches on %q", trial, len(fast), len(slow), text)
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("trial %d: raw match %d differs: %+v vs %+v on %q",
					trial, i, fast[i], slow[i], text)
			}
		}
	}
}

// TestFindAppendReusesBuffer checks the caller-owned-buffer contract:
// results land after existing elements, and a warm buffer round-trips
// without reallocating.
func TestFindAppendReusesBuffer(t *testing.T) {
	m := Build("t", []string{"alpha", "beta"}, DefaultOptions())
	text := "alpha then BETA then alpha"

	want := m.Find(text)
	if len(want) != 3 {
		t.Fatalf("Find returned %d matches, want 3: %+v", len(want), want)
	}

	buf := make([]Match, 0, 16)
	buf = append(buf, Match{Start: -1, End: -1})
	buf = m.FindAppend(buf, text)
	if len(buf) != 1+len(want) {
		t.Fatalf("FindAppend appended %d matches, want %d", len(buf)-1, len(want))
	}
	if buf[0].Start != -1 {
		t.Fatal("FindAppend clobbered existing elements")
	}
	for i, w := range want {
		if buf[1+i] != w {
			t.Errorf("match %d: %+v, want %+v", i, buf[1+i], w)
		}
	}

	// Warm reuse: same backing array must come back.
	buf = buf[:0]
	before := &buf[:1][0]
	buf = m.FindAppend(buf, text)
	if &buf[0] != before {
		t.Error("FindAppend reallocated despite sufficient capacity")
	}
}

// TestNonASCIIFallback: non-ASCII documents are scanned in a folded copy,
// and matches are still spans of the document.
func TestNonASCIIFallback(t *testing.T) {
	m := Build("t", []string{"alpha"}, DefaultOptions())
	text := "héllo Alpha wörld"
	got := m.Find(text)
	if len(got) != 1 || got[0].Surface != "Alpha" {
		t.Fatalf("non-ASCII text: got %+v, want one Alpha match", got)
	}
}
