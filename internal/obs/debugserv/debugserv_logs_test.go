package debugserv

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
)

// sampleSink builds a sink with records across components, levels, and
// one trace-correlated record.
func sampleSink(tid trace.TraceID) *evlog.Sink {
	sink := evlog.NewSink(evlog.DefaultConfig(3))
	frontier := sink.Logger("crawler.frontier")
	frontier.Debug("frontier.inject", 0, trace.String("url", "http://h1/ok"))
	frontier.Warn("frontier.exhausted", 50, trace.Int("known", 12))
	fetch := sink.Logger("crawler.fetch")
	fetch.For(tid).Warn("fetch.error", 60, trace.String("cause", "http_500"))
	fetch.Info("fetch.ok", 70, trace.String("url", "http://h1/ok"))
	return sink
}

func logOptions() (Options, trace.TraceID) {
	o := sampleOptions()
	pinned := o.Trace.Snapshot().Pinned()
	tid := pinned[0].ID
	o.Log = sampleSink(tid)
	return o, tid
}

func TestLogsFilters(t *testing.T) {
	o, tid := logOptions()
	h := Handler(o)

	if code, body := get(t, h, "/logs"); code != 200 ||
		!strings.Contains(body, "frontier.inject") || !strings.Contains(body, "fetch.error") {
		t.Fatalf("unfiltered /logs: %d\n%s", code, body)
	}
	if _, body := get(t, h, "/logs?component=crawler.frontier"); strings.Contains(body, "fetch.ok") ||
		!strings.Contains(body, "frontier.exhausted") {
		t.Fatalf("component filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/logs?level=warn"); strings.Contains(body, "frontier.inject") ||
		!strings.Contains(body, "fetch.error") {
		t.Fatalf("level filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/logs?msg=fetch.ok"); strings.Contains(body, "frontier.inject") ||
		!strings.Contains(body, "fetch.ok") {
		t.Fatalf("msg filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/logs?trace="+tid.String()); !strings.Contains(body, "fetch.error") ||
		strings.Contains(body, "fetch.ok") {
		t.Fatalf("trace filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/logs?limit=1"); strings.Count(body, "\n@") != 0 ||
		!strings.HasPrefix(body, "@") {
		t.Fatalf("limit not applied:\n%s", body)
	}
	if _, body := get(t, h, "/logs?format=logfmt"); !strings.Contains(body, "msg=fetch.error") {
		t.Fatalf("logfmt format wrong:\n%s", body)
	}
	// A typo'd level must 400 rather than silently returning the full
	// debug-level log.
	if code, body := get(t, h, "/logs?level=warning"); code != 400 {
		t.Fatalf("bad level not rejected: %d\n%s", code, body)
	}
	_, body := get(t, h, "/logs?format=json")
	var doc struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Records) == 0 {
		t.Fatalf("json format unparseable (%v):\n%s", err, body)
	}
}

func TestDoctorEndpoint(t *testing.T) {
	o, _ := logOptions()
	// Trip the breaker-storm rule through the metrics pillar.
	o.Metrics.Counter("crawler.breaker.opened").Add(5)
	h := Handler(o)

	code, body := get(t, h, "/doctor")
	if code != 200 || !strings.Contains(body, "breaker-storm") {
		t.Fatalf("/doctor: %d\n%s", code, body)
	}
	// The log pillar contributes evidence to the same finding.
	if !strings.Contains(body, "/logs?component=crawler.breaker") &&
		!strings.Contains(body, "crawler.breaker.opened=5") {
		t.Fatalf("/doctor missing fused evidence:\n%s", body)
	}
	// frontier.exhausted comes from the log pillar alone.
	if !strings.Contains(body, "frontier-exhausted") {
		t.Fatalf("/doctor missing log-pillar finding:\n%s", body)
	}
	if _, body := get(t, h, "/doctor?severity=critical"); strings.Contains(body, "frontier-exhausted") {
		t.Fatalf("severity filter wrong:\n%s", body)
	}
	if _, body := get(t, h, "/doctor?rule=breaker"); strings.Contains(body, "frontier-exhausted") ||
		!strings.Contains(body, "breaker-storm") {
		t.Fatalf("rule filter wrong:\n%s", body)
	}
	_, body = get(t, h, "/doctor?format=json")
	var rep struct {
		Healthy  bool             `json:"healthy"`
		Findings []map[string]any `json:"findings"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil || rep.Healthy || len(rep.Findings) == 0 {
		t.Fatalf("doctor json unparseable (%v):\n%s", err, body)
	}
}

func TestLogsAndDoctorOff(t *testing.T) {
	// No sink: /logs is off. No surfaces at all: /doctor is off too.
	h := Handler(Options{})
	for _, path := range []string{"/logs", "/doctor"} {
		if code, _ := get(t, h, path); code != 404 {
			t.Fatalf("%s with nil sources: not 404", path)
		}
	}
	// Any one pillar brings /doctor up.
	h = Handler(Options{Set: pillars.Set{Metrics: obs.New()}})
	if code, _ := get(t, h, "/doctor"); code != 200 {
		t.Fatalf("/doctor with metrics only: not 200")
	}
}

// TestContentTypes pins the Content-Type of every endpoint and format.
func TestContentTypes(t *testing.T) {
	o, _ := logOptions()
	o.Prof = sampleProf() // from debugserv_prof_test.go
	pinned := o.Trace.Snapshot().Pinned()
	id := pinned[0].ID.String()
	h := Handler(o)

	const text = "text/plain; charset=utf-8"
	const jsonCT = "application/json"
	cases := []struct {
		path string
		want string
	}{
		{"/", text},
		{"/metrics", text},
		{"/metrics?format=json", jsonCT},
		{"/traces", text},
		{"/traces?format=summary", text},
		{"/traces?format=json", jsonCT},
		{"/traces?format=chrome", jsonCT},
		{"/trace?id=" + id, text},
		{"/trace?id=" + id + "&format=json", jsonCT},
		{"/logs", text},
		{"/logs?format=logfmt", text},
		{"/logs?format=json", jsonCT},
		{"/doctor", text},
		{"/doctor?format=json", jsonCT},
		{"/profile", text},
		{"/profile?format=json", jsonCT},
		{"/progress", jsonCT},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", tc.path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != 200 {
			t.Errorf("%s: status %d", tc.path, rw.Code)
			continue
		}
		if got := rw.Header().Get("Content-Type"); got != tc.want {
			t.Errorf("%s: Content-Type = %q, want %q", tc.path, got, tc.want)
		}
	}
}
