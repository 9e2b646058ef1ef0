package stats

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"webtextie/internal/rng"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Std != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	_, p := MannWhitney(a, a)
	if p < 0.9 {
		t.Errorf("identical samples p = %v, want ~1", p)
	}
}

func TestMannWhitneySeparatedSamples(t *testing.T) {
	r := rng.New(1)
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = r.Norm(0, 1)
		b[i] = r.Norm(2, 1)
	}
	_, p := MannWhitney(a, b)
	if p > 0.001 {
		t.Errorf("separated samples p = %v, want < 0.001", p)
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	r := rng.New(2)
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		a[i] = r.Norm(5, 2)
		b[i] = r.Norm(5, 2)
	}
	_, p := MannWhitney(a, b)
	if p < 0.01 {
		t.Errorf("same-distribution p = %v, suspiciously small", p)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	a := []float64{1, 1, 1, 2, 2, 3}
	b := []float64{1, 2, 2, 3, 3, 3}
	u, p := MannWhitney(a, b)
	if math.IsNaN(u) || math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("ties: u=%v p=%v", u, p)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, p := MannWhitney(nil, []float64{1}); p != 1 {
		t.Errorf("empty sample p = %v", p)
	}
}

func TestMannWhitneySymmetryProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]float64, 20+r.Intn(30))
		b := make([]float64, 20+r.Intn(30))
		for i := range a {
			a[i] = r.Norm(0, 1)
		}
		for i := range b {
			b[i] = r.Norm(0.5, 1)
		}
		_, p1 := MannWhitney(a, b)
		_, p2 := MannWhitney(b, a)
		return math.Abs(p1-p2) < 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewDistribution(t *testing.T) {
	d := NewDistribution(map[string]int{"a": 3, "b": 1, "z": 0})
	if math.Abs(d["a"]-0.75) > 1e-9 || math.Abs(d["b"]-0.25) > 1e-9 {
		t.Errorf("distribution = %v", d)
	}
	if _, ok := d["z"]; ok {
		t.Error("zero-count key kept")
	}
	if NewDistribution(nil) != nil {
		t.Error("empty counts should yield nil")
	}
}

func TestJSDBounds(t *testing.T) {
	p := NewDistribution(map[string]int{"a": 1, "b": 1})
	if got := JSD(p, p); got > 1e-12 {
		t.Errorf("JSD(p,p) = %v", got)
	}
	q := NewDistribution(map[string]int{"c": 1, "d": 1})
	if got := JSD(p, q); math.Abs(got-1) > 1e-9 {
		t.Errorf("JSD(disjoint) = %v, want 1", got)
	}
}

func TestJSDSymmetryProperty(t *testing.T) {
	err := quick.Check(func(a, b, c, d uint8) bool {
		p := NewDistribution(map[string]int{"x": int(a) + 1, "y": int(b) + 1})
		q := NewDistribution(map[string]int{"x": int(c) + 1, "z": int(d) + 1})
		j1, j2 := JSD(p, q), JSD(q, p)
		return math.Abs(j1-j2) < 1e-12 && j1 >= 0 && j1 <= 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestJSDNil(t *testing.T) {
	p := NewDistribution(map[string]int{"a": 1})
	if JSD(nil, nil) != 0 || JSD(p, nil) != 1 || JSD(nil, p) != 1 {
		t.Error("nil distribution handling")
	}
}

func TestJSDSimilarCloserThanDissimilar(t *testing.T) {
	// The §4.3.2 use: relevant-vs-Medline must be closer than
	// relevant-vs-irrelevant when the supports overlap accordingly.
	rel := NewDistribution(map[string]int{"brca": 10, "tp53": 8, "egfr": 5, "webonly": 2})
	med := NewDistribution(map[string]int{"brca": 12, "tp53": 6, "egfr": 4, "medonly": 1})
	irr := NewDistribution(map[string]int{"faq": 10, "usa": 5, "brca": 1})
	if JSD(rel, med) >= JSD(rel, irr) {
		t.Errorf("JSD(rel,med)=%v >= JSD(rel,irr)=%v", JSD(rel, med), JSD(rel, irr))
	}
}

// TestJSDDeterministic: the divergence is a pure function of its inputs,
// to the bit, however Go happens to order the maps it is summed over.
func TestJSDDeterministic(t *testing.T) {
	r := rng.New(7)
	p, q := map[string]int{}, map[string]int{}
	for i := 0; i < 3000; i++ {
		k := strconv.Itoa(i)
		p[k] = 1 + r.Intn(1000)
		if i%3 != 0 {
			q[k] = 1 + r.Intn(1000)
		}
	}
	dp, dq := NewDistribution(p), NewDistribution(q)
	want := math.Float64bits(JSD(dp, dq))
	for i := 0; i < 100; i++ {
		if got := math.Float64bits(JSD(dp, dq)); got != want {
			t.Fatalf("call %d: JSD bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestKLInfinityOnMissingSupport(t *testing.T) {
	p := NewDistribution(map[string]int{"a": 1})
	q := NewDistribution(map[string]int{"b": 1})
	if !math.IsInf(KL(p, q), 1) {
		t.Error("KL with missing support should be +Inf")
	}
}
