package textgen

import (
	"reflect"
	"sync"
	"testing"

	"webtextie/internal/rng"
)

// withoutTokens is d with its Sentences dropped: what LeanDoc must return
// from the same draws.
func withoutTokens(d *Doc) *Doc {
	lean := *d
	lean.Sentences = nil
	return &lean
}

// checkLeanMatchesDoc generates one document both ways from the same seed
// and fails unless the lean document is Doc's without Sentences, both leave
// the caller's RNG in the same state, and no sentence's token slice can
// grow into the next one's.
func checkLeanMatchesDoc(t *testing.T, g *Generator, seed uint64, kind CorpusKind) {
	t.Helper()
	rd, rl := rng.New(seed), rng.New(seed)
	d, lean := g.Doc(rd, kind, "d"), g.LeanDoc(rl, kind, "d")
	if !reflect.DeepEqual(lean, withoutTokens(d)) {
		t.Fatalf("%v seed %d: LeanDoc differs from Doc without Sentences", kind, seed)
	}
	if a, b := rd.Uint64(), rl.Uint64(); a != b {
		t.Fatalf("%v seed %d: next draw after Doc %d, after LeanDoc %d", kind, seed, a, b)
	}
	if len(d.Sentences) != len(d.SentSpans) {
		t.Fatalf("%v seed %d: %d sentences for %d spans", kind, seed, len(d.Sentences), len(d.SentSpans))
	}
	for i, s := range d.Sentences {
		if len(s.Tokens) == 0 || cap(s.Tokens) != len(s.Tokens) {
			t.Fatalf("%v seed %d: sentence %d has %d tokens, capacity %d", kind, seed, i, len(s.Tokens), cap(s.Tokens))
		}
	}
}

func TestLeanDocMatchesDoc(t *testing.T) {
	g := testGenerator(t)
	for _, kind := range CorpusKinds {
		for seed := uint64(1); seed <= 40; seed++ {
			checkLeanMatchesDoc(t, g, seed, kind)
		}
	}
}

func FuzzLeanDocMatchesDoc(f *testing.F) {
	g := NewGenerator(2, NewLexicon(rng.New(1), LexiconSizes{Genes: 400, Drugs: 150, Diseases: 150}, 0.75), DefaultProfiles())
	for i := range CorpusKinds {
		f.Add(uint64(i+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8) {
		checkLeanMatchesDoc(t, g, seed, CorpusKinds[int(kind)%len(CorpusKinds)])
	})
}

// TestGeneratorConcurrent: four goroutines, each with its own RNG, share
// one generator and its pooled scratch, and produce exactly the documents
// a sequential run does. Run it under -race.
func TestGeneratorConcurrent(t *testing.T) {
	g := testGenerator(t)
	const workers, perWorker = 4, 30
	generate := func(w int) []*Doc {
		r := rng.New(uint64(100 + w))
		out := make([]*Doc, 0, perWorker)
		for i := range perWorker {
			kind := CorpusKinds[(w+i)%len(CorpusKinds)]
			if i%2 == 0 {
				out = append(out, g.Doc(r, kind, "c"))
			} else {
				out = append(out, g.LeanDoc(r, kind, "c"))
			}
		}
		return out
	}
	want := make([][]*Doc, workers)
	for w := range workers {
		want[w] = generate(w)
	}
	got := make([][]*Doc, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = generate(w)
		}()
	}
	wg.Wait()
	for w := range workers {
		if !reflect.DeepEqual(got[w], want[w]) {
			t.Errorf("worker %d: concurrent documents differ from the sequential run", w)
		}
	}
}
