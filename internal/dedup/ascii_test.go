package dedup

import (
	"strings"
	"testing"

	"webtextie/internal/rng"
)

// TestASCIIShinglesEquivalence pins the equivalence the zero-alloc
// fingerprint path rests on: for ASCII text, span hashing (hashWindow)
// produces exactly the shingle hashes of the legacy
// lower-split-join-hash path. A divergence would silently change every
// dedup decision on the crawl.
func TestASCIIShinglesEquivalence(t *testing.T) {
	vocab := []string{"Alpha", "beta", "GAMMA-7", "the", "of", "X", "mixedCase", "a1b2"}
	seps := []string{" ", "  ", "\t", "\n", "\r\n", " \v "}
	r := rng.New(41)
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		nw := r.Intn(12)
		for i := 0; i < nw; i++ {
			b.WriteString(vocab[r.Intn(len(vocab))])
			b.WriteString(seps[r.Intn(len(seps))])
		}
		text := b.String()
		for _, k := range []int{1, 2, 3, 5} {
			fast := Shingles(text, k)
			slow := shinglesUnicode(text, k)
			if len(fast) != len(slow) {
				t.Fatalf("k=%d: %d vs %d shingles on %q", k, len(fast), len(slow), text)
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("k=%d shingle %d: %#x vs %#x on %q", k, i, fast[i], slow[i], text)
				}
			}
		}
	}
}

// TestNonASCIITakesLegacyPath keeps the copying fold for text where
// per-byte case folding would be wrong.
func TestNonASCIITakesLegacyPath(t *testing.T) {
	text := "Straße und MÄRZ sind Wörter"
	got := Shingles(text, 2)
	want := shinglesUnicode(text, 2)
	if len(got) != len(want) {
		t.Fatalf("%d vs %d shingles", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shingle %d differs", i)
		}
	}
}

// TestSeenMarkEpochReset exercises the epoch-marked candidate scratch
// across many probes, including the growth path, against duplicate and
// non-duplicate outcomes.
func TestSeenMarkEpochReset(t *testing.T) {
	idx := NewIndex(0.9)
	texts := []string{
		"the quick brown fox jumps over the lazy dog again and again",
		"a completely different document about web scale extraction",
		"yet another unrelated text mentioning genes drugs and diseases",
	}
	for i, tx := range texts {
		if _, dup := idx.AddOrFind(string(rune('a'+i)), Sketch(tx, 3)); dup {
			t.Fatalf("text %d falsely marked duplicate", i)
		}
	}
	// Re-probe each: must hit as duplicate of itself, across epochs.
	for round := 0; round < 5; round++ {
		for i, tx := range texts {
			dupOf, dup := idx.AddOrFind("probe", Sketch(tx, 3))
			if !dup || dupOf != string(rune('a'+i)) {
				t.Fatalf("round %d text %d: dup=%v of %q", round, i, dup, dupOf)
			}
		}
	}
	if len(idx.ids) != len(texts) {
		t.Fatalf("index grew to %d, want %d", len(idx.ids), len(texts))
	}
}
