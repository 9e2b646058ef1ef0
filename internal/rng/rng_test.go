package rng

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("alpha")
	parent2 := New(7)
	c2 := parent2.Split("alpha")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same-label splits diverged at %d", i)
		}
	}
	p3 := New(7)
	c3 := p3.Split("beta")
	p4 := New(7)
	c4 := p4.Split("alpha")
	diff := false
	for i := 0; i < 10; i++ {
		if c3.Uint64() != c4.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("splits with different labels produced identical streams")
	}
}

// keyedMatchesSplit fails t unless Keyed(seed, parts...) draws what
// Split, the reference, draws from New(seed) for the joined label.
func keyedMatchesSplit(t *testing.T, seed uint64, parts ...string) {
	t.Helper()
	got := Keyed(seed, parts...)
	want := New(seed).Split(strings.Join(parts, ""))
	for i := 0; i < 16; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("Keyed(%d, %q) draw %d = %#x, Split says %#x", seed, parts, i, g, w)
		}
	}
}

func TestKeyedMatchesSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 63} {
		keyedMatchesSplit(t, seed)
		keyedMatchesSplit(t, seed, "")
		keyedMatchesSplit(t, seed, "hosts")
		keyedMatchesSplit(t, seed, "page/", "nih.gov", "/", "117")
		keyedMatchesSplit(t, seed, "fault/trunc/", "http://cancer.org/p9.html", "/", "2")
		keyedMatchesSplit(t, seed, "", "fail/", "", "http://h0/p1.html")
	}
}

func FuzzKeyedMatchesSplit(f *testing.F) {
	f.Add(uint64(1), "page/nih.gov/117", 5)
	f.Add(uint64(3), "fail/http://cancer.org/p9.html", 0)
	f.Add(uint64(0), "", 0)
	f.Fuzz(func(t *testing.T, seed uint64, label string, cut int) {
		cut = int(uint(cut) % uint(len(label)+1))
		keyedMatchesSplit(t, seed, label[:cut], label[cut:])
	})
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %.4f", got)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %.3f, want 10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %.3f, want 2", math.Sqrt(variance))
	}
}

func TestLogNormPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.LogNorm(3, 1); v <= 0 {
			t.Fatalf("LogNorm returned non-positive %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(19)
	for _, mean := range []float64{0.5, 3, 12, 50} {
		const trials = 50000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / trials
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %.3f", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(1)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 1000, 1.1)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Fatalf("Zipf not monotone-ish: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
}

func TestZipfInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		z := NewZipf(r, 50, 1.0)
		for i := 0; i < 100; i++ {
			v := z.Draw()
			if v < 0 || v >= 50 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPickCoversAll(t *testing.T) {
	r := New(41)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered only %d/3 elements", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 100000, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
