package debugserv

import (
	"encoding/json"
	"strings"
	"testing"

	"webtextie/internal/obs/series"
)

// seriesOptions is sampleOptions plus a series recorder holding two
// ramping streams.
func seriesOptions() Options {
	o := sampleOptions()
	rec := series.New(series.DefaultConfig())
	for i := 0; i < 10; i++ {
		rec.Observe("crawler.fetch.ok", int64(i)*1000, float64(i*10))
		rec.Observe("fleet.rounds", int64(i)*1000, float64(i))
	}
	o.Series = rec
	return o
}

func TestTimeseriesEndpoint(t *testing.T) {
	h := Handler(seriesOptions())

	// Text: one line per series, with a sparkline.
	code, body := get(t, h, "/timeseries")
	if code != 200 {
		t.Fatalf("text status %d:\n%s", code, body)
	}
	for _, want := range []string{"crawler.fetch.ok", "fleet.rounds", "▁", "█"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text missing %q:\n%s", want, body)
		}
	}

	// Name narrowing.
	code, body = get(t, h, "/timeseries?name=fleet")
	if code != 200 || strings.Contains(body, "crawler.fetch.ok") || !strings.Contains(body, "fleet.rounds") {
		t.Fatalf("name filter: %d\n%s", code, body)
	}

	// Width narrows the sparkline.
	code, body = get(t, h, "/timeseries?name=fleet&width=4")
	if code != 200 {
		t.Fatalf("width status %d", code)
	}
	line := strings.TrimSpace(body)
	if spark := line[strings.LastIndex(line, " ")+1:]; len([]rune(spark)) != 4 {
		t.Fatalf("sparkline width = %d glyphs, want 4: %q", len([]rune(spark)), spark)
	}

	// CSV and JSON renderings.
	code, body = get(t, h, "/timeseries?format=csv")
	if code != 200 || !strings.HasPrefix(body, "series,at_ms,value\ncrawler.fetch.ok,0,0\n") {
		t.Fatalf("csv: %d\n%s", code, body)
	}
	code, body = get(t, h, "/timeseries?format=json&name=crawler")
	if code != 200 {
		t.Fatalf("json status %d", code)
	}
	var snap struct {
		Series []struct {
			Name  string `json:"name"`
			Total int64  `json:"total"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Series) != 1 || snap.Series[0].Name != "crawler.fetch.ok" || snap.Series[0].Total != 10 {
		t.Fatalf("json narrowed series: %+v", snap.Series)
	}

	// Off when no recorder is attached.
	if code, _ := get(t, Handler(sampleOptions()), "/timeseries"); code != 404 {
		t.Fatalf("without recorder: status %d, want 404", code)
	}

	// Listed on the index.
	if _, body := get(t, h, "/"); !strings.Contains(body, "/timeseries") {
		t.Fatal("index does not list /timeseries")
	}
}

// TestBadQueryParamsAreRejected audits every endpooint: a query parameter
// that is present but unparsable must produce 400, never a silently
// unfiltered or misformatted response.
func TestBadQueryParamsAreRejected(t *testing.T) {
	o := seriesOptions()
	o.Log = sampleSink(0) // from debugserv_logs_test.go
	o.Prof = sampleProf() // from debugserv_prof_test.go
	h := Handler(o)
	bad := []string{
		"/metrics?format=yaml",
		"/traces?format=yaml",
		"/traces?limit=ten",
		"/traces?limit=-3",
		"/traces?pinned=maybe",
		"/trace?id=zzz",
		"/trace?id=1&format=yaml",
		"/logs?level=loud",
		"/logs?trace=zzz",
		"/logs?limit=ten",
		"/logs?format=yaml",
		"/doctor?severity=fatal",
		"/doctor?format=yaml",
		"/timeseries?format=yaml",
		"/timeseries?width=wide",
		"/timeseries?width=0",
		"/timeseries?width=-2",
		"/profile?format=yaml",
		"/profile?format=folded",
		"/profile?format=wall",
		"/profile?topk=ten",
		"/profile?topk=-1",
	}
	for _, path := range bad {
		if code, body := get(t, h, path); code != 400 {
			t.Errorf("%s: status %d, want 400 (body %q)", path, code, strings.TrimSpace(body))
		}
	}
	// The corresponding well-formed requests all succeed.
	good := []string{
		"/metrics?format=json",
		"/traces?format=summary&limit=10&pinned=true",
		"/logs?level=warn&limit=5&format=logfmt",
		"/doctor?severity=warning&format=json",
		"/timeseries?width=8&format=csv",
		"/profile?topk=0&format=text",
		"/profile?scope=crawl&format=json",
	}
	for _, path := range good {
		if code, _ := get(t, h, path); code != 200 {
			t.Errorf("%s: status %d, want 200", path, code)
		}
	}
	// The Go pprof mux rides the same handler; its pages must stay up.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		if code, _ := get(t, h, path); code != 200 {
			t.Errorf("%s: status %d, want 200", path, code)
		}
	}
}
