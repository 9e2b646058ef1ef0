package debugserv

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// fixture attaches all five pillars, filled so that every doctor rule
// whose evidence cites a debug-server URL fires, plus a progress source.
func fixture() Options {
	reg := obs.New()
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"crawler.classify.relevant", 5}, {"crawler.classify.irrelevant", 95}, // harvest-collapse
		{"crawler.breaker.opened", 3},                                      // breaker-storm
		{"crawler.frontier.trap", 400}, {"crawler.links.discovered", 1000}, // spider-trap
		{"crawler.retry.scheduled", 80}, {"crawler.fetch.ok", 100}, // retry-churn
		{"dataflow.op.03.ner.gene.quarantined", 40}, {"dataflow.op.03.ner.gene.in", 100}, // quarantine-heavy-op
		{"fleet.shard.crashes", 1}, {"fleet.shard.fenced", 1}, // shard-crash-loop, degraded-completion
	} {
		reg.Counter(c.name).Add(c.v)
	}

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
	for i, class := range []string{"breaker_open", "retry_exhausted"} {
		tc := rec.Start("crawler.url", "http://h3/"+class, int64(100+i), trace.String("host", "h3"))
		tc.Error(class, int64(110+i))
		tc.Finish(int64(120 + i))
	}

	sink := evlog.NewSink(evlog.DefaultConfig(3))
	sink.Logger("crawler.cycle").Info("cycle.done", 10, trace.Int("fetched", 1))
	frontier := sink.Logger("crawler.frontier")
	frontier.Debug("frontier.trap", 0, trace.String("host", "h1"))
	frontier.Warn("frontier.exhausted", 50, trace.Int("known", 12))
	sink.Logger("crawler.breaker").Warn("breaker.open", 60, trace.String("host", "h3"))
	sink.Logger("crawler.breaker").Info("breaker.closed", 70, trace.String("host", "h3"))
	sink.Logger("dataflow.op").Info("op.summary", 80, trace.String("op", "ner.gene"), trace.Int("quarantined", 40))
	sup := sink.Logger("fleet.supervisor")
	sup.Warn("shard.crash", 90, trace.Int("shard", 1))
	sup.Error("shard.fenced", 95, trace.Int("shard", 1))

	// harvest-decay: 35% relevant in the early half, 4% in the late one.
	ser := series.New(series.DefaultConfig())
	rel := []float64{0, 10, 20, 30, 40, 45, 47, 48, 49, 50}
	irr := []float64{0, 15, 30, 45, 60, 85, 113, 142, 171, 200}
	for i := range rel {
		ser.Observe("crawler.classify.relevant", int64(i)*1000, rel[i])
		ser.Observe("crawler.classify.irrelevant", int64(i)*1000, irr[i])
	}

	// checkpoint-overhead-dominance: a third of the wall time checkpoints.
	p := prof.New(prof.Config{})
	p.Load(&prof.Snapshot{Scopes: []*prof.ScopeData{
		{Name: "crawl.checkpoint", Calls: 10, WallNs: 300_000_000},
		{Name: "crawl.cycle", Calls: 1, WallNs: 600_000_000},
		{Name: "crawl.cycle.fetch", Calls: 10, WallNs: 500_000_000},
	}})

	return Options{
		Set:      pillars.Set{Metrics: reg, Trace: rec, Log: sink, Series: ser, Prof: p},
		Progress: func() any { return map[string]int{"cycles": 7} },
	}
}

func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
	return rw
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rw := serve(h, path)
	return rw.Code, rw.Body.String()
}

// endpoint is one pillar endpoint of the contract: the export bytes it
// serves, its Content-Type, the query parameters it reads, and how to
// detach its pillar.
type endpoint struct {
	path, contentType, export string
	reads                     []string
	detach                    func(*Options)
}

// endpoints tables the pillar endpoints over one snapshot of the
// fixture. Each export is what the matching CLI flag writes at exit.
func endpoints(t *testing.T, snap pillars.Snapshot) []endpoint {
	t.Helper()
	profJSON, err := json.MarshalIndent(snap.Profile, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return []endpoint{
		{"/metrics", textPlain, snap.Metrics.Text(), nil, func(o *Options) { o.Metrics = nil }},
		{"/traces", textPlain, snap.Traces.Text(), []string{"err"}, func(o *Options) { o.Trace = nil }},
		{"/logs", textPlain, snap.Logs.Logfmt(), []string{"component", "level"}, func(o *Options) { o.Log = nil }},
		{"/timeseries", "text/csv; charset=utf-8", snap.Series.CSV(), nil, func(o *Options) { o.Series = nil }},
		{"/profile", "application/json", string(profJSON), nil, func(o *Options) { o.Prof = nil }},
		{"/doctor", textPlain, doctor.Diagnose(doctor.Input{Snapshot: snap}).Text(), nil, func(o *Options) { o.Set = pillars.Set{} }},
	}
}

// TestEndpointsServeExportBytes is the server's contract: each pillar
// endpoint serves exactly the bytes its CLI export flag writes at exit,
// and with its pillar detached it is a 404.
func TestEndpointsServeExportBytes(t *testing.T) {
	o := fixture()
	h := Handler(o)
	for _, e := range endpoints(t, o.Set.Snapshot()) {
		if code, body := get(t, h, e.path); code != 200 || body != e.export {
			t.Errorf("%s: status %d, body:\n%s\nwant the export:\n%s", e.path, code, body, e.export)
		}
		off := o
		e.detach(&off)
		if code, _ := get(t, Handler(off), e.path); code != 404 {
			t.Errorf("%s with its pillar detached: status %d, want 404", e.path, code)
		}
	}
}

// TestContentTypes pins the Content-Type of every endpoint.
func TestContentTypes(t *testing.T) {
	o := fixture()
	want := map[string]string{"/": textPlain, "/progress": "application/json"}
	for _, e := range endpoints(t, o.Set.Snapshot()) {
		want[e.path] = e.contentType
	}
	h := Handler(o)
	for _, path := range slices.Sorted(maps.Keys(want)) {
		rw := serve(h, path)
		if rw.Code != 200 {
			t.Errorf("%s: status %d", path, rw.Code)
		}
		if got := rw.Header().Get("Content-Type"); got != want[path] {
			t.Errorf("%s: Content-Type = %q, want %q", path, got, want[path])
		}
	}
}

// TestBadQueryParamsAreRejected: an endpoint answers 400 to any query
// parameter it does not read, and to a read one whose value is
// malformed — never a silently unfiltered or misformatted response.
func TestBadQueryParamsAreRejected(t *testing.T) {
	o := fixture()
	h := Handler(o)
	// Every query parameter any endpoint has ever read.
	params := []string{"format", "url", "key", "op", "err", "pinned", "limit", "id",
		"component", "level", "msg", "trace", "name", "width", "scope", "topk", "severity", "rule"}
	for _, e := range endpoints(t, o.Set.Snapshot()) {
		for _, p := range params {
			if slices.Contains(e.reads, p) {
				continue
			}
			if code, _ := get(t, h, e.path+"?"+p+"=1"); code != 400 {
				t.Errorf("%s?%s=1 (not read): status %d, want 400", e.path, p, code)
			}
		}
	}
	// An unknown level must not fall through to the full debug log.
	if code, _ := get(t, h, "/logs?level=warning"); code != 400 {
		t.Errorf("/logs?level=warning: status %d, want 400", code)
	}
	// The Go pprof mux rides the same handler; its pages must stay up.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		if code, _ := get(t, h, path); code != 200 {
			t.Errorf("%s: status %d, want 200", path, code)
		}
	}
}

// TestTracesFilters: ?err= narrows the trace export to exactly the
// traces that recorded the error class.
func TestTracesFilters(t *testing.T) {
	o := fixture()
	full := o.Trace.Snapshot()
	only := func(key string) string {
		s := *full
		s.Traces = nil
		for _, tr := range full.Traces {
			if tr.Key == key {
				s.Traces = append(s.Traces, tr)
			}
		}
		return s.Text()
	}
	h := Handler(o)
	for path, want := range map[string]string{
		"/traces?err=quarantine":      only("http://h2/bad"),
		"/traces?err=breaker_open":    only("http://h3/breaker_open"),
		"/traces?err=no_such_class":   only(""),
		"/traces?err=retry_exhausted": only("http://h3/retry_exhausted"),
	} {
		if code, body := get(t, h, path); code != 200 || body != want {
			t.Errorf("%s: status %d, body:\n%s\nwant:\n%s", path, code, body, want)
		}
	}
}

// TestLogsFilters: ?component= (substring) and ?level= (minimum) narrow
// the logfmt export line by line.
func TestLogsFilters(t *testing.T) {
	o := fixture()
	full := o.Log.Snapshot().Logfmt()
	lines := func(keep func(line string) bool) string {
		var b strings.Builder
		for _, line := range strings.SplitAfter(full, "\n") {
			if line != "" && keep(line) {
				b.WriteString(line)
			}
		}
		return b.String()
	}
	warnUp := func(line string) bool {
		return strings.Contains(line, " level=warn ") || strings.Contains(line, " level=error ")
	}
	h := Handler(o)
	for path, want := range map[string]string{
		"/logs?component=crawler.frontier": lines(func(l string) bool { return strings.Contains(l, " component=crawler.frontier ") }),
		"/logs?component=crawler":          lines(func(l string) bool { return strings.Contains(l, " component=crawler.") }),
		"/logs?level=warn":                 lines(warnUp),
		"/logs?component=fleet.supervisor&level=error": lines(func(l string) bool {
			return strings.Contains(l, " level=error component=fleet.supervisor ")
		}),
	} {
		if code, body := get(t, h, path); code != 200 || body != want || body == "" {
			t.Errorf("%s: status %d, body:\n%s\nwant:\n%s", path, code, body, want)
		}
	}
}

// TestTimeseriesEndpoint: /timeseries is the CSV export, one row per
// retained point, sorted by series then time.
func TestTimeseriesEndpoint(t *testing.T) {
	code, body := get(t, Handler(fixture()), "/timeseries")
	if code != 200 || !strings.HasPrefix(body, "series,at_ms,value\ncrawler.classify.irrelevant,0,0\ncrawler.classify.irrelevant,1000,15\n") {
		t.Fatalf("status %d, CSV:\n%s", code, body)
	}
	if rows := strings.Count(body, "\n"); rows != 1+20 {
		t.Errorf("CSV has %d lines, want a header and 20 rows", rows)
	}
}

// TestProfileEndpoint: /profile is the profiler's snapshot as JSON.
func TestProfileEndpoint(t *testing.T) {
	code, body := get(t, Handler(fixture()), "/profile")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var snap prof.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if cp := snap.Get("crawl.checkpoint"); len(snap.Scopes) != 3 || cp == nil || cp.Calls != 10 || cp.WallNs != 300_000_000 {
		t.Fatalf("profile JSON = %s", body)
	}
}

// citation matches the debug-server URL a doctor evidence line cites.
var citation = regexp.MustCompile(`\(see (/[^)\s]*)\)`)

// TestDoctorCitationsResolve: every URL a doctor evidence line cites
// answers 200 with a non-empty body on the server over the same pillars.
// The fixture must fire every citation the doctor's source spells, so a
// rule that cites a filter the server no longer reads fails here.
func TestDoctorCitationsResolve(t *testing.T) {
	o := fixture()
	rep := doctor.Diagnose(doctor.Input{Snapshot: o.Set.Snapshot()})
	cited := map[string]bool{}
	for _, f := range rep.Findings {
		for _, e := range f.Evidence {
			for _, m := range citation.FindAllStringSubmatch(e, -1) {
				cited[m[1]] = true
			}
		}
	}
	sources, err := filepath.Glob(filepath.Join("..", "doctor", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	spelled := 0
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllStringSubmatch(string(data), -1) {
			spelled++
			if !cited[m[1]] {
				t.Errorf("%s cites %s, but no finding on the fixture does", filepath.Base(src), m[1])
			}
		}
	}
	if spelled == 0 {
		t.Fatal("found no citations in the doctor's source")
	}
	h := Handler(o)
	for _, url := range slices.Sorted(maps.Keys(cited)) {
		if code, body := get(t, h, url); code != 200 || strings.TrimSpace(body) == "" {
			t.Errorf("%s: status %d, body %q", url, code, body)
		}
	}
}

func TestIndexListsEndpointsAndErrClasses(t *testing.T) {
	code, body := get(t, Handler(fixture()), "/")
	if code != 200 {
		t.Fatalf("index status %d", code)
	}
	for _, want := range []string{"/metrics", "/traces", "/logs", "/timeseries", "/profile", "/doctor",
		"/progress", "/debug/pprof/", "quarantine"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q:\n%s", want, body)
		}
	}
}

func TestProgressJSON(t *testing.T) {
	code, body := get(t, Handler(fixture()), "/progress")
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
	for _, path := range []string{"/metrics", "/traces", "/progress"} {
		if code, _ := get(t, h, path); code != 404 {
			t.Fatalf("%s with nil source: %d", path, code)
		}
	}
}

func TestDoctorEndpoint(t *testing.T) {
	o := fixture()
	o.Series, o.Prof = nil, nil
	h := Handler(o)

	code, body := get(t, h, "/doctor")
	if code != 200 || !strings.Contains(body, "breaker-storm") {
		t.Fatalf("/doctor: %d\n%s", code, body)
	}
	// The trace and log pillars contribute evidence to the same finding.
	for _, want := range []string{"crawler.breaker.opened=3", "(see /traces?err=breaker_open)", "(see /logs?component=crawler.breaker)"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/doctor missing fused evidence %q:\n%s", want, body)
		}
	}
	// frontier.exhausted comes from the log pillar alone.
	if !strings.Contains(body, "frontier-exhausted") {
		t.Fatalf("/doctor missing log-pillar finding:\n%s", body)
	}
	// Detached pillars find nothing: no time or profile rule fires.
	for _, absent := range []string{"harvest-decay", "checkpoint-overhead-dominance"} {
		if strings.Contains(body, absent) {
			t.Fatalf("/doctor reports %s without its pillar:\n%s", absent, body)
		}
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

// TestLiveServerServesPinnedTrace is the live half of the acceptance
// criterion: a real HTTP GET against a running server returns the pinned
// lineage, while the recorder is still being written to.
func TestLiveServerServesPinnedTrace(t *testing.T) {
	o := fixture()
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

	resp, err := http.Get("http://" + srv.Addr() + "/traces?err=quarantine")
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
	if strings.Contains(string(body), "http://h1/ok") {
		t.Fatalf("live /traces?err=quarantine kept an unpinned trace:\n%s", body)
	}
	<-done

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
