package debugserv

import (
	"encoding/json"
	"strings"
	"testing"

	"webtextie/internal/obs/prof"
)

// sampleProf builds a profiler with a small crawl-stage tree of fixed
// costs: three stages under a cycle scope.
func sampleProf() *prof.Profiler {
	p := prof.New(prof.Config{})
	p.Load(&prof.Snapshot{Scopes: []*prof.ScopeData{
		{Name: "crawl.cycle", Calls: 1, WallNs: 1_040_000_000},
		{Name: "crawl.cycle.classify", Calls: 6, WallNs: 60_000_000},
		{Name: "crawl.cycle.fetch", Calls: 10, WallNs: 900_000_000},
		{Name: "crawl.cycle.filter", Calls: 8, WallNs: 80_000_000},
	}})
	return p
}

// profOptions is sampleOptions plus the profiler pillar.
func profOptions() Options {
	o := sampleOptions()
	o.Prof = sampleProf()
	return o
}

func TestProfileEndpoint(t *testing.T) {
	h := Handler(profOptions())

	// Text default: the table, most expensive scope first.
	code, body := get(t, h, "/profile")
	if code != 200 {
		t.Fatalf("text status %d:\n%s", code, body)
	}
	for _, want := range []string{"SCOPE", "crawl.cycle.fetch", "TOTAL"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text missing %q:\n%s", want, body)
		}
	}
	if strings.Index(body, "crawl.cycle.fetch") > strings.Index(body, "crawl.cycle.filter") {
		t.Fatalf("table not cost-sorted:\n%s", body)
	}

	// topk limits the table rows (header + k rows + total).
	code, body = get(t, h, "/profile?topk=2")
	if code != 200 || strings.Contains(body, "crawl.cycle.filter") || !strings.Contains(body, "crawl.cycle.fetch") {
		t.Fatalf("topk=2: %d\n%s", code, body)
	}

	// Scope narrowing.
	code, body = get(t, h, "/profile?scope=classify")
	if code != 200 || strings.Contains(body, "crawl.cycle.fetch") || !strings.Contains(body, "crawl.cycle.classify") {
		t.Fatalf("scope filter: %d\n%s", code, body)
	}

	// JSON is the snapshot itself.
	code, body = get(t, h, "/profile?format=json")
	if code != 200 {
		t.Fatalf("json status %d", code)
	}
	var snap prof.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if fetch := snap.Get("crawl.cycle.fetch"); len(snap.Scopes) != 4 || fetch == nil || fetch.Calls != 10 || fetch.WallNs != 900_000_000 {
		t.Fatalf("json snapshot = %s", body)
	}

	// Off when no profiler is attached.
	if code, _ := get(t, Handler(sampleOptions()), "/profile"); code != 404 {
		t.Fatalf("without profiler: status %d, want 404", code)
	}

	// Listed on the index.
	if _, body := get(t, h, "/"); !strings.Contains(body, "/profile") {
		t.Fatal("index does not list /profile")
	}
}
