package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webtextie/internal/boiler"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(values, n=4) for the same inputs.
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.vals)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	s := summarize([]float64{10, 12, 11, 13, 9})
	if s.Median != 11 || s.Min != 9 || s.Max != 13 || s.N != 5 || s.IQR != 3 || math.Abs(s.Spread-3.0/11) > 1e-12 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {250, 0.96}, {1000, 0.99}, {50000, 0.99}} {
		if got := highPercentile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := percentile(vals, highPercentile(len(vals), 0.99)); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := percentile(vals, 0.5); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Kernel: kBoiler, Parent: -1, Start: 0, End: 100},
		{Kernel: kTokenizeHTML, Parent: 0, Start: 10, End: 30},
		{Kernel: kRepair, Parent: 1, Start: 12, End: 20}, // grandchild: comes off its parent only
		{Kernel: kBlocks, Parent: 0, Start: 40, End: 50},
		{Kernel: kLangid, Parent: -1, Start: 100, End: 160},
	}
	want := []int64{70, 12, 8, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	var total int64
	for _, s := range got {
		total += s
	}
	if total != 160 {
		t.Errorf("self times sum to %d, want the covered 160", total)
	}
	agg := aggregate(spans)
	if agg[kBoiler].SelfNs != 70 || agg[kBoiler].TotalNs != 100 || agg[kBoiler].Calls != 1 {
		t.Errorf("aggregate(boiler) = %+v", agg[kBoiler])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.begin(kBoiler, 7)
	tr.begin(kRepair, 7)
	tr.end(10)
	tr.end(20)
	tr.begin(kMime, 8)
	tr.end(5)
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Bytes != 10 || tr.spans[0].Bytes != 20 || tr.spans[0].Item != 7 {
		t.Errorf("bytes/item not recorded: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span ends before it starts: %+v", s)
		}
	}
}

func TestJudgeRefusesToSeeThroughTheSpread(t *testing.T) {
	at := func(median, spread float64) summary { return summary{Median: median, Spread: spread} }
	for _, c := range []struct {
		name      string
		prev, cur summary
		better    string
		bound     float64
		want      verdict
	}{
		{"flat", at(100, 0.01), at(101, 0.01), "lower", 0.10, same},
		{"worse past bound and spread", at(100, 0.02), at(115, 0.02), "lower", 0.10, regressed},
		{"worse past bound inside spread", at(100, 0.20), at(115, 0.02), "lower", 0.10, unresolved},
		{"spread wider than bound", at(100, 0.15), at(100, 0.01), "lower", 0.10, unresolved},
		{"throughput fell", at(1000, 0.01), at(850, 0.01), "higher", 0.10, regressed},
		{"throughput rose", at(1000, 0.01), at(1100, 0.01), "higher", 0.10, improved},
		{"gain smaller than spread", at(1000, 0.05), at(1030, 0.01), "higher", 0.10, same},
		{"worse within bound", at(100, 0.01), at(108, 0.01), "lower", 0.10, same},
	} {
		if got, _ := judge(c.prev, c.cur, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	var spec benchmarkJSON
	if err := loadJSON(filepath.Join("..", specPath), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNamesWhatTheProgramEmits(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndSpecs))
	}
	for i, s := range endToEndSpecs {
		got := spec.EndToEnd[i]
		if (metricSpec{got.Name, got.Unit, got.Better}) != s {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, s)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	layers := perLayerSpecs()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layers))
	}
	for i, s := range layers {
		if got := spec.PerLayer[i]; (metricSpec{got.Name, got.Unit, got.Better}) != s {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, s)
		}
	}
}

func TestNetTextIsBoilerExtract(t *testing.T) {
	sys := buildSystem(3, scales["tiny"])
	c := boiler.Default()
	pages := append(sys.Set.Crawl.Relevant, sys.Set.Crawl.IrrelevantPages...)
	if len(pages) == 0 {
		t.Fatal("tiny system crawl classified no page")
	}
	for _, p := range pages {
		page, err := sys.Set.Web.PageContent(p.URL)
		if err != nil {
			t.Fatal(err)
		}
		html := string(page.Body)
		if got, want := netText(c, html, 0, noProbe{}), c.Extract(html).NetText; got != want {
			t.Fatalf("%s: netText differs from boiler.Extract (%d vs %d bytes)", p.URL, len(got), len(want))
		}
	}
}

// TestSmokeTiny runs every workload end to end at the tiny scale, through
// the command line the driver uses, and checks that every metric
// BENCHMARK.json names comes out finite and that outputs repeat.
func TestSmokeTiny(t *testing.T) {
	spec := loadSpec(t)
	out := t.TempDir()
	digests := map[string]string{}
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "2", "--seconds", "0", "--trace", mode,
				"--scale", "tiny", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d: %s", w.name, mode, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s --trace %s: last line is not JSON: %v", w.name, mode, err)
			}
			if len(line) != 4 {
				t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w.name, line)
			}
			var dl driverLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
				t.Fatal(err)
			}
			if !dl.Correct || dl.Attempted < 1 || dl.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%t attempted=%d failed=%d", w.name, mode, dl.Correct, dl.Attempted, dl.Failed)
			}
			want := map[string]string{}
			if mode == "0" {
				for _, s := range spec.EndToEnd {
					want[s.Name] = s.Unit
				}
			} else {
				for _, s := range spec.PerLayer {
					want[s.Name] = s.Unit
				}
			}
			if len(dl.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.name, mode, len(dl.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := dl.Metrics[name]
				if !ok {
					t.Errorf("%s --trace %s: metric %s missing", w.name, mode, name)
					continue
				}
				if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %s, want a finite number of %s", w.name, name, m.Value, m.Unit, unit)
				}
				if mode == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if mode == "1" {
				if c := dl.Metrics["trace.coverage"].Value; c <= 0 {
					t.Errorf("%s: trace.coverage = %v", w.name, c)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: span dump not written: %v", w.name, err)
				}
			}

			var res result
			if err := loadJSON(filepath.Join(out, "result.json"), &res); err != nil {
				t.Fatal(err)
			}
			d := res.Workloads[0].OutputDigests[0]
			if prev, seen := digests[w.name]; seen && prev != d {
				t.Errorf("%s: output digest %s with --trace %s, %s before", w.name, d, mode, prev)
			}
			digests[w.name] = d
		}
	}
}

func TestCheckAgainstFlagsAChangedDigest(t *testing.T) {
	m := func(v float64) metric {
		s := summary{Median: v, Spread: 0.01, N: 5}
		return metric{Value: v, Unit: "s", Summary: &s}
	}
	mk := func(digest string, wall float64) *result {
		return &result{Meta: meta{Seed: 1, Scale: "tiny"}, Workloads: []workloadResult{{
			Name: "crawl_focused", OutputDigests: []string{digest},
			EndToEnd: map[string]metric{"wall_s": m(wall), "items_per_s": m(1 / wall)},
		}}}
	}
	base := &baseline{path: "prev.json", prev: *mk("aaaa", 1.0)}
	if err := loadJSON(filepath.Join("..", specPath), &base.spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := base.check(mk("aaaa", 1.01), &buf); err != nil || !ok {
		t.Errorf("an unchanged run fails the check: ok=%t err=%v\n%s", ok, err, buf.String())
	}
	if ok, _ := base.check(mk("bbbb", 1.0), &buf); ok {
		t.Error("a changed output digest passes the check")
	}
	if ok, _ := base.check(mk("aaaa", 2.0), &buf); ok {
		t.Error("a wall time twice as long passes the check")
	}
	other := mk("aaaa", 1.0)
	other.Meta.Seed = 2
	if _, err := base.check(other, &buf); err == nil {
		t.Error("results of different seeds were compared")
	}
}
