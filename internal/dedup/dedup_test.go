package dedup

import (
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

func TestShingles(t *testing.T) {
	sh := Shingles("one two three four", 3)
	if len(sh) != 2 {
		t.Fatalf("shingles = %d, want 2", len(sh))
	}
	// Case-insensitive.
	a := Shingles("One Two Three", 3)
	b := Shingles("one two three", 3)
	if a[0] != b[0] {
		t.Error("shingles not case-folded")
	}
	if Shingles("", 3) != nil {
		t.Error("empty text should have no shingles")
	}
	if got := Shingles("short", 3); len(got) != 1 {
		t.Errorf("short text shingles = %d", len(got))
	}
}

func TestIdenticalTextsFullSimilarity(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog repeatedly every day"
	a, b := Sketch(text, 3), Sketch(text, 3)
	if got := Similarity(a, b); got != 1 {
		t.Fatalf("identical similarity = %v", got)
	}
}

func TestDisjointTextsLowSimilarity(t *testing.T) {
	a := Sketch("alpha beta gamma delta epsilon zeta eta theta iota kappa", 3)
	b := Sketch("one two three four five six seven eight nine ten eleven", 3)
	if got := Similarity(a, b); got > 0.2 {
		t.Fatalf("disjoint similarity = %v", got)
	}
}

func TestNearDuplicateHighSimilarity(t *testing.T) {
	// A varied base text (many distinct shingles) plus a short appended
	// notice — the mirror-page pattern.
	var b strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "sentence %d mentions topic%d and topic%d in passing. ", i, i*3%17, i*5%23)
	}
	base := b.String()
	mutated := base + "one extra trailing sentence appended here"
	sim := Similarity(Sketch(base, 3), Sketch(mutated, 3))
	if sim < 0.8 {
		t.Fatalf("near-duplicate similarity = %v, want high", sim)
	}
}

func TestSimilarityTracksJaccard(t *testing.T) {
	// Construct texts with a controlled word overlap and check the MinHash
	// estimate lands near the true shingle Jaccard.
	r := rng.New(5)
	words := make([]string, 400)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", r.Intn(5000))
	}
	a := strings.Join(words[:300], " ")
	b := strings.Join(words[100:], " ") // 2/3 overlap in word positions
	sa, sb := Shingles(a, 3), Shingles(b, 3)
	// True Jaccard over shingle sets.
	set := map[uint64]bool{}
	for _, s := range sa {
		set[s] = true
	}
	inter := 0
	union := len(set)
	for _, s := range sb {
		if set[s] {
			inter++
		} else {
			union++
		}
	}
	trueJ := float64(inter) / float64(union)
	est := Similarity(MinHash(sa), MinHash(sb))
	if est < trueJ-0.2 || est > trueJ+0.2 {
		t.Fatalf("estimate %v too far from true Jaccard %v", est, trueJ)
	}
}

func TestIndexFindsNearDuplicates(t *testing.T) {
	idx := NewIndex(0.7)
	base := strings.Repeat("biomedical content about gene regulation and drug response in patients ", 15)
	if _, dup := idx.AddOrFind("original", Sketch(base, 3)); dup {
		t.Fatal("first document reported as dup")
	}
	mirror := base + "hosted mirror copy notice"
	dupOf, dup := idx.AddOrFind("mirror", Sketch(mirror, 3))
	if !dup || dupOf != "original" {
		t.Fatalf("mirror not detected: dup=%v of=%q", dup, dupOf)
	}
	other := strings.Repeat("completely different shopping content about prices and deals online ", 15)
	if _, dup := idx.AddOrFind("other", Sketch(other, 3)); dup {
		t.Fatal("unrelated document reported as dup")
	}
	if len(idx.ids) != 2 {
		t.Fatalf("index size = %d, want 2", len(idx.ids))
	}
}

func TestIndexManyDocumentsNoFalsePositives(t *testing.T) {
	// Generated documents are all distinct; none should collide.
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 200, Drugs: 80, Diseases: 80}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	r := rng.New(9)
	idx := NewIndex(0.8)
	dups := 0
	for i := 0; i < 300; i++ {
		d := gen.Doc(r, textgen.Relevant, fmt.Sprint("d", i))
		if _, dup := idx.AddOrFind(d.ID, Sketch(d.Text, 3)); dup {
			dups++
		}
	}
	if dups > 3 {
		t.Fatalf("%d/300 distinct documents flagged as near-duplicates", dups)
	}
}

func TestIndexConcurrentSafe(t *testing.T) {
	idx := NewIndex(0.9)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				text := fmt.Sprintf("worker %d document %d with some distinct words %d %d", w, i, w*1000+i, i*7)
				idx.AddOrFind(fmt.Sprintf("w%d-%d", w, i), Sketch(text, 2))
			}
			done <- true
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if len(idx.ids) == 0 {
		t.Fatal("nothing indexed")
	}
}

func BenchmarkSketch(b *testing.B) {
	text := strings.Repeat("the patient was treated with the drug and responded well ", 50)
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = Sketch(text, 3)
	}
}

func BenchmarkIndexAddOrFind(b *testing.B) {
	idx := NewIndex(0.8)
	sigs := make([]Signature, 200)
	for i := range sigs {
		sigs[i] = Sketch(fmt.Sprintf("document %d with content %d %d %d", i, i*3, i*7, i*11), 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.AddOrFind(fmt.Sprint("id", i), sigs[i%len(sigs)])
	}
}
