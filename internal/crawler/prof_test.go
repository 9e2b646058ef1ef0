package crawler

import "testing"

// TestProfileStageAccounting ties the crawl's bracket counts to the
// metrics pillar — one fetch bracket per attempt, one filter bracket per
// fetched page, one classify bracket per classified page — and checks
// the stages' wall time nests inside the cycle's, on the identity
// fixture's reference crawl.
func TestProfileStageAccounting(t *testing.T) {
	res := fixture{}.run(t).res
	s, m := res.Profile, res.Metrics
	for _, tc := range []struct {
		scope string
		want  int64
	}{
		{"crawl.cycle", m.Counter("crawler.cycles")},
		{"crawl.cycle.fetch", m.Counter("crawler.fetch.ok") + m.Counter("crawler.fetch.errors")},
		{"crawl.cycle.filter", m.Counter("crawler.fetch.ok")},
		{"crawl.cycle.classify", m.Counter("crawler.classify.relevant") + m.Counter("crawler.classify.irrelevant")},
	} {
		sd := s.Get(tc.scope)
		if sd == nil || sd.Calls == 0 || sd.WallNs <= 0 {
			t.Fatalf("%s unpopulated: %+v", tc.scope, sd)
		}
		if sd.Calls != tc.want {
			t.Errorf("%s calls = %d, want %d from the metrics pillar", tc.scope, sd.Calls, tc.want)
		}
	}
	stages := s.Get("crawl.cycle.fetch").WallNs + s.Get("crawl.cycle.filter").WallNs + s.Get("crawl.cycle.classify").WallNs
	if cycle := s.Get("crawl.cycle").WallNs; stages > cycle {
		t.Errorf("stage wall sum %d ns exceeds crawl.cycle's %d ns", stages, cycle)
	}
}
