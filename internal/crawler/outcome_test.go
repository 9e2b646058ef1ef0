package crawler

import (
	"testing"

	"webtextie/internal/crawldb"
	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/trace"
)

// TestFetchOneOutcomes drives fetchOne over one page per exit and pins
// what each writes to every pillar: the Stats field, the counter, the
// profiler brackets, the CrawlDB status, and the trace's event and
// terminal status — and that the event log holds no record about the
// page, which is its trace's alone. The expectations are spelled out
// here, not read from the production table.
func TestFetchOneOutcomes(t *testing.T) {
	p := newPipeline(t, 40)
	cfg := DefaultConfig()
	cfg.MaxPages = 400

	// A reference crawl finds a page for every exit through a trace
	// recorder that keeps every trace.
	traceCfg := trace.DefaultConfig(1)
	traceCfg.HeadKeep = 1 << 16
	ref := New(cfg, p.web, p.clf).WithTrace(trace.NewRecorder(traceCfg)).Run(defaultSeeds(t, p))
	attr := func(attrs []trace.Attr, key string) string {
		for _, a := range attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	pageFor := map[string]string{} // event (or verdict) -> URL
	for _, tr := range ref.Traces.Traces {
		for _, ev := range tr.Spans[0].Events {
			key := ev.Name
			if ev.Name == "classify.verdict" {
				key = attr(ev.Attrs, "verdict")
			}
			if _, seen := pageFor[key]; !seen {
				pageFor[key] = tr.Key
			}
		}
	}

	cases := []struct {
		name   string
		page   string // key into pageFor
		mutate func(*Config)

		stat        func(Stats) int
		counter     string
		dbStatus    crawldb.Status
		event       string
		eventAttrs  []string
		verdict     string
		traceStatus string
	}{
		{name: "mime", page: "filter.mime",
			stat: func(s Stats) int { return s.FilteredMIME }, counter: "crawler.filter.mime",
			dbStatus: crawldb.Filtered, event: "filter.mime", traceStatus: "filtered"},
		{name: "too-short", page: "filter.length",
			stat: func(s Stats) int { return s.FilteredLength }, counter: "crawler.filter.length",
			dbStatus: crawldb.Filtered, event: "filter.length", eventAttrs: []string{"net_text_len"},
			traceStatus: "filtered"},
		{name: "too-long", page: "filter.lang", mutate: func(c *Config) { c.MaxNetTextLen = 10 },
			stat: func(s Stats) int { return s.FilteredLength }, counter: "crawler.filter.length",
			dbStatus: crawldb.Filtered, event: "filter.length", eventAttrs: []string{"net_text_len"},
			traceStatus: "filtered"},
		{name: "lang", page: "filter.lang",
			stat: func(s Stats) int { return s.FilteredLang }, counter: "crawler.filter.lang",
			dbStatus: crawldb.Filtered, event: "filter.lang", traceStatus: "filtered"},
		{name: "relevant", page: "relevant",
			stat: func(s Stats) int { return s.Relevant }, counter: "crawler.classify.relevant",
			dbStatus: crawldb.Fetched, event: "classify.verdict", eventAttrs: []string{"verdict", "prob"},
			verdict: "relevant", traceStatus: "relevant"},
		{name: "irrelevant", page: "irrelevant",
			stat: func(s Stats) int { return s.Irrelevant }, counter: "crawler.classify.irrelevant",
			dbStatus: crawldb.Fetched, event: "classify.verdict", eventAttrs: []string{"verdict", "prob"},
			verdict: "irrelevant", traceStatus: "irrelevant"},
	}
	keys := func(attrs []trace.Attr) []string {
		var out []string
		for _, a := range attrs {
			out = append(out, a.Key)
		}
		return out
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := pageFor[tc.page]
			if url == "" {
				t.Fatalf("reference crawl logged no %s page", tc.page)
			}
			ccfg := cfg
			if tc.mutate != nil {
				tc.mutate(&ccfg)
			}
			rec := trace.NewRecorder(trace.DefaultConfig(1))
			sink := evlog.NewSink(evlog.DefaultConfig(5))
			pr := prof.New(prof.Config{})
			c := New(ccfg, p.web, p.clf).WithMetrics(obs.New()).WithTrace(rec).WithLog(sink).WithProf(pr)
			c.inject(url, 0)
			// Links followed from the page stay out of this frontier.
			c.WithRouter(func(string, string, int) bool { return true })
			list := c.db.GenerateAt(1, 1, c.nowMs())
			if len(list) != 1 {
				t.Fatalf("page %s did not enter the frontier", url)
			}
			c.fetchOne(list[0])
			res := c.Finish()

			// Stats and counters: this exit's moved by one, no other exit's moved.
			total := res.Stats.FilteredMIME + res.Stats.FilteredLength + res.Stats.FilteredLang +
				res.Stats.Relevant + res.Stats.Irrelevant
			if tc.stat(res.Stats) != 1 || total != 1 {
				t.Errorf("stats: this exit = %d, all exits = %d, want 1 and 1 (%+v)", tc.stat(res.Stats), total, res.Stats)
			}
			var counted int64
			for _, name := range []string{"crawler.filter.mime", "crawler.filter.length", "crawler.filter.lang",
				"crawler.classify.relevant", "crawler.classify.irrelevant"} {
				counted += res.Metrics.Counter(name)
			}
			if res.Metrics.Counter(tc.counter) != 1 || counted != 1 {
				t.Errorf("counter %s = %d, all exit counters = %d, want 1 and 1", tc.counter, res.Metrics.Counter(tc.counter), counted)
			}
			// Profiler: every fetched page is filtered; only a page past
			// the filters enters the classify bracket.
			classified := int64(0)
			if tc.verdict != "" {
				classified = 1
			}
			if f, cl := res.Profile.Get("crawl.cycle.filter"), res.Profile.Get("crawl.cycle.classify"); f.Calls != 1 || cl.Calls != classified {
				t.Errorf("profile: filter %+v classify %+v, want 1 and %d call(s)", f, cl, classified)
			}
			if st := c.db.Snapshot().Status[url]; st != tc.dbStatus {
				t.Errorf("crawldb status = %v, want %v", st, tc.dbStatus)
			}
			// Trace: the exit's event, then crawl.done with the terminal status.
			if len(res.Traces.Traces) != 1 || !res.Traces.Traces[0].Done {
				t.Fatalf("want one finished trace, got %+v", res.Traces.Traces)
			}
			var events []trace.Event
			for _, sp := range res.Traces.Traces[0].Spans {
				if sp.Name == "crawler.url" {
					events = sp.Events
				}
			}
			if len(events) < 2 {
				t.Fatalf("root span events = %+v", events)
			}
			ev, done := events[len(events)-2], events[len(events)-1]
			if ev.Name != tc.event || !same(keys(ev.Attrs), tc.eventAttrs) || attr(ev.Attrs, "verdict") != tc.verdict {
				t.Errorf("exit event = %+v, want %s with attrs %v, verdict %q", ev, tc.event, tc.eventAttrs, tc.verdict)
			}
			if done.Name != "crawl.done" || attr(done.Attrs, "status") != tc.traceStatus {
				t.Errorf("terminal event = %+v, want crawl.done status=%s", done, tc.traceStatus)
			}
			// Log: nothing about the page, though the sink was attached.
			if len(res.Logs.Records) == 0 {
				t.Fatal("the attached sink logged nothing, not even crawl.done")
			}
			for _, r := range res.Logs.Records {
				for _, a := range r.Attrs {
					if a.Key == "url" || a.Value == url {
						t.Errorf("log record %+v is about the page", r)
					}
				}
			}
		})
	}
}
