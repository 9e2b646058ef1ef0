package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Error("Counter not get-or-create")
	}
	g := r.Gauge("q.depth")
	g.Set(7)
	g.Set(4)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	if r.Gauge("q.depth") != g {
		t.Error("Gauge not get-or-create")
	}
}

// TestHistogramBucketBoundaries pins the bucket convention: observation v
// lands in the first bucket whose bound satisfies v <= bound; values above
// every bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		want   []int64 // len(bounds)+1 after dedupe/sanitise
	}{
		{"exact-on-bound", []float64{1, 2, 5}, []float64{1, 2, 5}, []int64{1, 1, 1, 0}},
		{"just-above-bound", []float64{1, 2, 5}, []float64{1.0001, 2.5}, []int64{0, 1, 1, 0}},
		{"below-first", []float64{1, 2, 5}, []float64{0, -3}, []int64{2, 0, 0, 0}},
		{"overflow", []float64{1, 2, 5}, []float64{5.1, 1e9}, []int64{0, 0, 0, 2}},
		{"unsorted-bounds-sorted", []float64{5, 1, 2}, []float64{1.5}, []int64{0, 1, 0, 0}},
		{"duplicate-bounds-deduped", []float64{1, 1, 2}, []float64{0.5, 1.5}, []int64{1, 1, 0}},
		{"single-bucket", []float64{10}, []float64{3, 30}, []int64{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.bounds)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if len(h.counts) != len(tc.want) {
				t.Fatalf("bucket count = %d, want %d", len(h.counts), len(tc.want))
			}
			for i := range tc.want {
				if got := h.counts[i].Load(); got != tc.want[i] {
					t.Errorf("bucket %d = %d, want %d", i, got, tc.want[i])
				}
			}
			if h.Count() != int64(len(tc.obs)) {
				t.Errorf("Count = %d, want %d", h.Count(), len(tc.obs))
			}
		})
	}
}

func TestHistogramSum(t *testing.T) {
	h := newHistogram([]float64{10})
	for _, v := range []float64{1.5, 2.5, 4} {
		h.Observe(v)
	}
	if h.Sum() != 8 {
		t.Errorf("Sum = %v, want 8", h.Sum())
	}
}

func TestSpanEnd(t *testing.T) {
	s := StartSpan()
	time.Sleep(time.Millisecond)
	if d := s.End(); d < time.Millisecond {
		t.Errorf("span duration = %v, want at least 1ms", d)
	}
}

func TestEmptyRegistry(t *testing.T) {
	r := New()
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Fatalf("empty registry snapshot not empty: %+v", s)
	}
	if s.Text() != "" {
		t.Errorf("empty Text = %q", s.Text())
	}
	if m := s.Merge(s); len(m.Counters) != 0 {
		t.Errorf("empty Merge = %+v", m)
	}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != "{}" {
		t.Errorf("empty JSON = %s", js)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only.b").Inc()
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(5)
	a.Histogram("h", 1, 10).Observe(5)
	b.Histogram("h", 1, 10).Observe(0.5)
	// Mismatched layout under the same name degrades to count/sum.
	a.Histogram("mix", 1).Observe(2)
	b.Histogram("mix", 1, 2, 3).Observe(2)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counter("c") != 7 || m.Counter("only.b") != 1 {
		t.Errorf("counters = %+v", m.Counters)
	}
	if m.Gauge("g") != 7 {
		t.Errorf("gauge = %d, want 7", m.Gauge("g"))
	}
	h := m.Hists["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged hist = %+v", h)
	}
	mix := m.Hists["mix"]
	if mix.Count != 2 || mix.Sum != 4 || mix.Bounds != nil || mix.Counts != nil {
		t.Errorf("mismatched-layout merge = %+v, want count/sum only", mix)
	}
}

// TestConcurrentWriters hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this is the detector target, and
// the final totals must be exact.
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h", 1, 100).Observe(float64(i % 150))
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race the writers safely
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	const total = workers * perWorker
	if s.Counter("c") != total {
		t.Errorf("counter = %d, want %d", s.Counter("c"), total)
	}
	if s.Gauge("g") != perWorker-1 { // every worker's last Set
		t.Errorf("gauge = %d, want %d", s.Gauge("g"), perWorker-1)
	}
	h := s.Hists["h"]
	if h.Count != total {
		t.Errorf("hist count = %d, want %d", h.Count, total)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
}

func TestTextRenderingDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := New()
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Add(1)
		r.Gauge("z.gauge").Set(-4)
		r.Histogram("lat", 1, 5).Observe(0.5)
		r.Histogram("lat", 1, 5).Observe(3)
		r.Histogram("lat", 1, 5).Observe(99)
		return r.Snapshot()
	}
	got := build().Text()
	want := strings.Join([]string{
		"counter a.count 1",
		"counter b.count 2",
		"gauge   z.gauge -4",
		"hist    lat count=3 sum=102.5 le1:1 le5:1 leINF:1",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Text:\n%s\nwant:\n%s", got, want)
	}
	if again := build().Text(); again != got {
		t.Error("Text not deterministic across identical registries")
	}
}

func TestDefaultAndOr(t *testing.T) {
	if Or(nil) != Default() {
		t.Error("Or(nil) != Default()")
	}
	r := New()
	if Or(r) != r {
		t.Error("Or(r) != r")
	}
}

// TestRegistryLoadResumesStreams: Load is the restore half of
// checkpoint/resume — a snapshot loaded into a fresh registry followed by
// the remaining observations must render identically to one uninterrupted
// registry.
func TestRegistryLoadResumesStreams(t *testing.T) {
	firstHalf := func(r *Registry) {
		r.Counter("c.events").Add(7)
		r.Gauge("g.depth").Set(12)
		h := r.Histogram("h.lat", 1, 5, 10)
		h.Observe(0.5)
		h.Observe(7)
	}
	secondHalf := func(r *Registry) {
		r.Counter("c.events").Add(3)
		r.Gauge("g.depth").Set(2)
		h := r.Histogram("h.lat", 1, 5, 10)
		h.Observe(3)
		h.Observe(99)
	}

	full := New()
	firstHalf(full)
	secondHalf(full)

	interrupted := New()
	firstHalf(interrupted)
	cp := interrupted.Snapshot()

	resumed := New()
	resumed.Load(cp)
	secondHalf(resumed)

	if got, want := resumed.Snapshot().Text(), full.Snapshot().Text(); got != want {
		t.Fatalf("resumed registry diverges:\n--- resumed\n%s--- full\n%s", got, want)
	}
}

// TestRegistryLoadDegradedHistogram: a count/sum-only histogram snapshot
// (mismatched-merge artifact) still restores count and sum.
func TestRegistryLoadDegradedHistogram(t *testing.T) {
	r := New()
	r.Load(Snapshot{Hists: map[string]HistSnapshot{"h.only": {Count: 4, Sum: 20}}})
	h, ok := r.Snapshot().Hists["h.only"]
	if !ok || h.Count != 4 || h.Sum != 20 {
		t.Fatalf("degraded load: %+v ok=%v", h, ok)
	}
}
