package crawler

import (
	"strings"
	"testing"

	"webtextie/internal/obs/trace"
)

// tracesWhere returns a snapshot of the traces in s that keep accepts.
func tracesWhere(s *trace.Snapshot, keep func(*trace.Trace) bool) *trace.Snapshot {
	out := &trace.Snapshot{}
	for _, tr := range s.Traces {
		if keep(tr) {
			out.Traces = append(out.Traces, tr)
		}
	}
	return out
}

// TestBreakerOpenYieldsPinnedLineage is the acceptance criterion: a
// breaker-opened host pins a trace whose span tree names every hop —
// frontier insertion, each fetch attempt, each backoff, the breaker
// transition — and the trace survives eviction. The crawl is the
// identity fixture's reference.
func TestBreakerOpenYieldsPinnedLineage(t *testing.T) {
	s := fixture{}.run(t).res.Traces

	opened := tracesWhere(s, func(tr *trace.Trace) bool { return tr.HasErrClass("breaker_open") })
	if len(opened.Traces) == 0 {
		t.Fatal("chaos crawl opened no breakers (fault config too mild?)")
	}
	for _, tr := range opened.Traces {
		if !tr.Pinned {
			t.Fatalf("breaker_open trace %s not pinned", tr.ID)
		}
	}
	// The lineage of one pinned trace names every hop.
	tr := opened.Traces[0]
	text := tracesWhere(s, func(t *trace.Trace) bool { return t.Key == tr.Key && t.Pinned }).Text()
	for _, hop := range []string{
		"span crawler.url",
		"frontier.inject",
		"span crawler.fetch.attempt",
		"fetch.error",
		"error class=breaker_open",
	} {
		if !strings.Contains(text, hop) {
			t.Fatalf("pinned lineage missing %q:\n%s", hop, text)
		}
	}
	// Backoffs appear somewhere among the pinned breaker traces (an open
	// breaker requires repeated failures, which back off while budget
	// lasts).
	if !strings.Contains(opened.Text(), "retry.backoff") {
		t.Fatalf("no retry.backoff recorded in breaker lineages:\n%s", opened.Text())
	}
}

// TestRetryExhaustionPinsTrace: a URL that runs out of retry budget is a
// flight-recorder event too.
func TestRetryExhaustionPinsTrace(t *testing.T) {
	// Small web, no page cap: the crawl runs to frontier exhaustion, so
	// every dead-host URL burns its full retry budget (breakers off).
	p := chaosPipeline(t, 10, chaosWeb)
	cfg := DefaultConfig()
	cfg.BreakerFailures = 0
	rec := trace.NewRecorder(trace.DefaultConfig(1))
	New(cfg, p.web, p.clf).WithTrace(rec).Run(defaultSeeds(t, p))
	s := rec.Snapshot()
	exhausted := tracesWhere(s, func(tr *trace.Trace) bool { return tr.HasErrClass("retry_exhausted") })
	if len(exhausted.Traces) == 0 {
		t.Fatal("no URL exhausted its retry budget despite disabled breakers")
	}
	for _, tr := range exhausted.Traces {
		if !tr.Pinned {
			t.Fatalf("retry_exhausted trace %s not pinned", tr.ID)
		}
		if !tr.Done {
			t.Fatalf("retry_exhausted trace %s not finished", tr.ID)
		}
	}
}

// TestCrawlTraceIDsStoredInDB: every traced URL's ID is resolvable through
// the CrawlDB, so lineage lookups by URL work after the crawl — here the
// identity fixture's crawl, killed and resumed mid-run.
func TestCrawlTraceIDsStoredInDB(t *testing.T) {
	res := fixture{resumed: true}.run(t).res
	s := res.Traces
	checked := 0
	for _, page := range res.Relevant {
		id, ok := res.CrawlDB.TraceOf(page.URL)
		if !ok {
			t.Fatalf("no trace ID stored for crawled %s", page.URL)
		}
		for _, tr := range tracesWhere(s, func(tr *trace.Trace) bool { return tr.ID == trace.TraceID(id) }).Traces {
			if tr.Key != page.URL {
				t.Fatalf("trace %s key %q != URL %q", tr.ID, tr.Key, page.URL)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no crawled page's trace survived retention; widen bounds")
	}
}
