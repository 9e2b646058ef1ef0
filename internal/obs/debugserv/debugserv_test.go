package debugserv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
)

// sampleRecorder builds a recorder holding one ordinary trace and one
// pinned (quarantined) trace.
func sampleRecorder() *trace.Recorder {
	rec := trace.NewRecorder(trace.DefaultConfig(3))
	ok := rec.Start("crawler.url", "http://h1/ok", 0, trace.String("host", "h1"))
	ok.Event("frontier.inject", 0, trace.Int("depth", 0))
	ok.Finish(100)
	bad := rec.Start("crawler.url", "http://h2/bad", 50, trace.String("host", "h2"))
	at := bad.StartSpan("crawler.fetch.attempt", 60, trace.Int("attempt", 0))
	at.Event("fetch.error", 70, trace.String("cause", "http_500"))
	at.End(70)
	bad.Error("quarantine", 80, trace.String("op", "fetch"))
	bad.Finish(90)
	return rec
}

func sampleOptions() Options {
	reg := obs.New()
	reg.Counter("pages.fetched.total").Add(42)
	return Options{
		Set:      pillars.Set{Metrics: reg, Trace: sampleRecorder()},
		Progress: func() any { return map[string]int{"cycles": 7} },
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.String()
}

func TestIndexListsEndpointsAndErrClasses(t *testing.T) {
	code, body := get(t, Handler(sampleOptions()), "/")
	if code != 200 {
		t.Fatalf("index status %d", code)
	}
	for _, want := range []string{"/metrics", "/traces", "/progress", "/debug/pprof/", "quarantine"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsTextAndJSON(t *testing.T) {
	h := Handler(sampleOptions())
	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "pages.fetched.total") {
		t.Fatalf("text metrics: %d\n%s", code, body)
	}
	code, body := get(t, h, "/metrics?format=json")
	if code != 200 {
		t.Fatalf("json metrics status %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["pages.fetched.total"] != 42 {
		t.Fatalf("counter lost in json: %v", snap.Counters)
	}
}

func TestTracesFilters(t *testing.T) {
	h := Handler(sampleOptions())

	if _, body := get(t, h, "/traces"); !strings.Contains(body, "http://h1/ok") ||
		!strings.Contains(body, "http://h2/bad") {
		t.Fatalf("unfiltered /traces incomplete:\n%s", body)
	}
	if _, body := get(t, h, "/traces?pinned=1"); strings.Contains(body, "http://h1/ok") ||
		!strings.Contains(body, "error class=quarantine") {
		t.Fatalf("pinned filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/traces?url=h1"); strings.Contains(body, "http://h2/bad") {
		t.Fatalf("url filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/traces?err=quarantine&op=fetch.attempt"); !strings.Contains(body, "http://h2/bad") {
		t.Fatalf("err+op filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/traces?format=summary"); !strings.Contains(body, "err=quarantine") {
		t.Fatalf("summary format wrong:\n%s", body)
	}
	_, body := get(t, h, "/traces?format=chrome")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome format unparseable (%v):\n%s", err, body)
	}
}

func TestTraceByID(t *testing.T) {
	o := sampleOptions()
	h := Handler(o)
	pinned := o.Trace.Snapshot().Pinned()
	if len(pinned) != 1 {
		t.Fatalf("want 1 pinned sample trace, got %d", len(pinned))
	}
	code, body := get(t, h, "/trace?id="+pinned[0].ID.String())
	if code != 200 || !strings.Contains(body, "http://h2/bad") {
		t.Fatalf("/trace by id: %d\n%s", code, body)
	}
	if code, _ := get(t, h, "/trace?id=zzzz"); code != 400 {
		t.Fatalf("bad id accepted: %d", code)
	}
	if code, _ := get(t, h, "/trace?id=00000000000000ff"); code != 404 {
		t.Fatalf("unknown id not 404: %d", code)
	}
}

func TestProgressJSON(t *testing.T) {
	code, body := get(t, Handler(sampleOptions()), "/progress")
	if code != 200 {
		t.Fatalf("progress status %d", code)
	}
	var p map[string]int
	if err := json.Unmarshal([]byte(body), &p); err != nil || p["cycles"] != 7 {
		t.Fatalf("progress payload wrong (%v): %s", err, body)
	}
}

func TestNilSourcesAre404(t *testing.T) {
	h := Handler(Options{})
	for _, path := range []string{"/metrics", "/traces", "/trace?id=1", "/progress"} {
		if code, _ := get(t, h, path); code != 404 {
			t.Fatalf("%s with nil source: %d", path, code)
		}
	}
}

// TestLiveServerServesPinnedTrace is the live half of the acceptance
// criterion: a real HTTP GET against a running server returns the pinned
// lineage, while the recorder is still being written to.
func TestLiveServerServesPinnedTrace(t *testing.T) {
	o := sampleOptions()
	srv, err := Start("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tc := o.Trace.Start("crawler.url", "http://live/concurrent", int64(i))
			tc.Finish(int64(i) + 1)
		}
	}()

	resp, err := http.Get("http://" + srv.Addr() + "/traces?pinned=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("live /traces status %d", resp.StatusCode)
	}
	for _, want := range []string{"http://h2/bad", "span crawler.fetch.attempt", "fetch.error", "error class=quarantine"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("live pinned trace missing %q:\n%s", want, body)
		}
	}
	<-done

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
