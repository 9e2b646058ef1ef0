package series

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/obs"
)

// feed observes a deterministic ramp into the named series.
func feed(r *Recorder, name string, n int) {
	for i := 0; i < n; i++ {
		r.Observe(name, int64(i*10), float64(i))
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Observe("x.y", 1, 2)
	r.Sample(1, obs.Snapshot{Counters: map[string]int64{"a.b": 1}})
	r.Load(&Snapshot{})
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", s)
	}
}

func TestConfigNormalization(t *testing.T) {
	r := New(Config{})
	if got, want := r.cfg, DefaultConfig(); got != want {
		t.Fatalf("zero config normalized to %+v, want %+v", got, want)
	}
	r = New(Config{RawCap: 4})
	if got := r.cfg; got.RawCap != 4 {
		t.Fatalf("explicit config mangled: %+v", got)
	}
}

func TestRawRingEvictsOldest(t *testing.T) {
	r := New(Config{RawCap: 4})
	feed(r, "m.x", 6)
	sd := r.Snapshot().Get("m.x")
	if sd == nil {
		t.Fatal("series m.x missing from snapshot")
	}
	if sd.Total != 6 {
		t.Fatalf("total = %d, want 6", sd.Total)
	}
	want := []Point{{20, 2}, {30, 3}, {40, 4}, {50, 5}}
	if len(sd.Points) != len(want) {
		t.Fatalf("points = %v, want %v", sd.Points, want)
	}
	for i, p := range want {
		if sd.Points[i] != p {
			t.Fatalf("points[%d] = %v, want %v", i, sd.Points[i], p)
		}
	}
}

func TestSampleOrderAndCollision(t *testing.T) {
	r := New(DefaultConfig())
	r.Sample(100, obs.Snapshot{
		Counters: map[string]int64{"b.count": 2, "a.count": 1, "both.kinds": 7},
		Gauges:   map[string]int64{"c.gauge": 3, "both.kinds": 9},
	})
	s := r.Snapshot()
	var names []string
	for _, sd := range s.Series {
		names = append(names, sd.Name)
	}
	if got, want := strings.Join(names, " "), "a.count b.count both.kinds c.gauge"; got != want {
		t.Fatalf("series names = %q, want %q", got, want)
	}
	if p, _ := s.Get("both.kinds").Last(); p.V != 7 {
		t.Fatalf("counter/gauge collision resolved to %v, want the counter (7)", p.V)
	}
}

// parentCut is the 41-sample cut below as the recorder wrote it before
// its rollup tiers were removed: a "tiers" array per series and three
// retired retention keys in the config. Checkpoints written then embed
// exactly this JSON, so it must still load.
const parentCut = `{"config":{"raw_cap":8,"rollup_every":3,"tiers":2,"tier_cap":4},
"series":[{"name":"m.x","total":41,
"points":[{"at_ms":33,"v":7},{"at_ms":34,"v":8},{"at_ms":35,"v":9},{"at_ms":36,"v":10},
{"at_ms":37,"v":11},{"at_ms":38,"v":12},{"at_ms":39,"v":0},{"at_ms":40,"v":1}],
"tiers":[{"acc":{"from_ms":39,"to_ms":40,"count":2,"first":0,"last":1,"min":0,"max":1,"sum":1},"acc_n":2,
"rollups":[{"from_ms":27,"to_ms":29,"count":3,"first":1,"last":3,"min":1,"max":3,"sum":6},
{"from_ms":30,"to_ms":32,"count":3,"first":4,"last":6,"min":4,"max":6,"sum":15},
{"from_ms":33,"to_ms":35,"count":3,"first":7,"last":9,"min":7,"max":9,"sum":24},
{"from_ms":36,"to_ms":38,"count":3,"first":10,"last":12,"min":10,"max":12,"sum":33}],"evicted":9},
{"acc":{"from_ms":36,"to_ms":38,"count":3,"first":10,"last":12,"min":10,"max":12,"sum":33},"acc_n":1,
"rollups":[{"from_ms":0,"to_ms":8,"count":9,"first":0,"last":8,"min":0,"max":8,"sum":36},
{"from_ms":9,"to_ms":17,"count":9,"first":9,"last":4,"min":0,"max":12,"sum":52},
{"from_ms":18,"to_ms":26,"count":9,"first":5,"last":0,"min":0,"max":12,"sum":68},
{"from_ms":27,"to_ms":35,"count":9,"first":1,"last":9,"min":1,"max":9,"sum":45}]}]}]}`

func TestSnapshotLoadRoundTripContinuesStream(t *testing.T) {
	cfg := Config{RawCap: 8}
	full := New(cfg)
	cut := New(cfg)
	for i := 0; i < 100; i++ {
		full.Observe("m.x", int64(i), float64(i%13))
		if i < 41 {
			cut.Observe("m.x", int64(i), float64(i%13))
		}
	}
	var parent Snapshot
	if err := json.Unmarshal([]byte(parentCut), &parent); err != nil {
		t.Fatal(err)
	}
	// Resume: checkpoint at sample 41, load into a fresh recorder, feed
	// the remainder. Exports must be byte-identical to uninterrupted,
	// whichever shape the checkpoint was written in.
	for name, snap := range map[string]*Snapshot{"current": cut.Snapshot(), "parent-shaped": &parent} {
		resumed := New(DefaultConfig()) // deliberately different config: Load adopts the snapshot's
		resumed.Load(snap)
		for i := 41; i < 100; i++ {
			resumed.Observe("m.x", int64(i), float64(i%13))
		}
		if got, want := resumed.Snapshot().CSV(), full.Snapshot().CSV(); got != want {
			t.Fatalf("%s: resumed CSV diverges from uninterrupted:\nresumed:\n%s\nfull:\n%s", name, got, want)
		}
		gj, _ := json.Marshal(resumed.Snapshot())
		wj, _ := json.Marshal(full.Snapshot())
		if string(gj) != string(wj) {
			t.Fatalf("%s: resumed JSON diverges from uninterrupted:\nresumed:\n%s\nfull:\n%s", name, gj, wj)
		}
	}
}

func TestTwoRunByteIdentity(t *testing.T) {
	run := func() string {
		r := New(Config{RawCap: 16})
		for i := 0; i < 123; i++ {
			r.Sample(int64(i*25), obs.Snapshot{
				Counters: map[string]int64{"fetch.ok": int64(i * 2), "classify.relevant": int64(i / 3)},
				Gauges:   map[string]int64{"frontier.pending": int64(1000 - i*7)},
			})
		}
		s := r.Snapshot()
		j, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return s.CSV() + string(j) + s.Text()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("two identical sample streams rendered different exports")
	}
}

func TestQueries(t *testing.T) {
	pts := []Point{{0, 10}, {1000, 20}, {2000, 30}, {3000, 40}}
	if got := Delta(pts); got != 30 {
		t.Errorf("Delta = %v, want 30", got)
	}
	if got := Rate(pts); got != 10 {
		t.Errorf("Rate = %v, want 10/s", got)
	}
	if got := Slope(pts); math.Abs(got-10) > 1e-9 {
		t.Errorf("Slope = %v, want 10/s", got)
	}
	// Degenerate windows.
	if Delta(nil) != 0 || Rate(nil) != 0 || Slope(nil) != 0 {
		t.Error("empty-window queries should all be 0")
	}
	same := []Point{{5, 1}, {5, 2}}
	if Rate(same) != 0 || Slope(same) != 0 {
		t.Error("zero-time-span queries should be 0")
	}
}

func TestCSVShape(t *testing.T) {
	r := New(Config{RawCap: 2})
	feed(r, "m.x", 3)
	feed(r, "a.y", 1)
	want := "series,at_ms,value\n" +
		"a.y,0,0\n" +
		"m.x,10,1\n" +
		"m.x,20,2\n"
	if got := r.Snapshot().CSV(); got != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", got, want)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 8); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	up := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}}
	if got := Sparkline(up, 8); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q, want full ladder", got)
	}
	flat := []Point{{0, 5}, {1, 5}, {2, 5}}
	if got := Sparkline(flat, 8); got != "▅▅▅" {
		t.Errorf("flat sparkline = %q, want mid-level glyphs", got)
	}
	// Downsampling: more points than width still renders width glyphs.
	var long []Point
	for i := 0; i < 100; i++ {
		long = append(long, Point{int64(i), float64(i)})
	}
	if got := Sparkline(long, 8); len([]rune(got)) != 8 {
		t.Errorf("downsampled sparkline %q has %d glyphs, want 8", got, len([]rune(got)))
	}
}

func TestGet(t *testing.T) {
	r := New(DefaultConfig())
	feed(r, "crawler.fetch.ok", 2)
	feed(r, "crawler.fetch.err", 2)
	feed(r, "fleet.rounds", 2)
	s := r.Snapshot()
	if s.Get("crawler.fetch.ok") == nil || s.Get("fleet.rounds") == nil || s.Get("nope") != nil {
		t.Fatal("Get lookup broken")
	}
	var none *Snapshot
	if none.Get("crawler.fetch.ok") != nil {
		t.Fatal("nil snapshot Get found a series")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New(DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("worker.%d.ops", g)
			for i := 0; i < 500; i++ {
				r.Observe(name, int64(i), float64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if len(s.Series) != 8 {
		t.Fatalf("series count = %d, want 8", len(s.Series))
	}
	for _, sd := range s.Series {
		if sd.Total != 500 {
			t.Fatalf("%s total = %d, want 500", sd.Name, sd.Total)
		}
	}
}
