package graph

import (
	"math"
	"testing"

	"webtextie/internal/crawldb"
)

func buildLinkDB() *crawldb.LinkDB {
	l := crawldb.NewLinkDB()
	// hub.com is endorsed by everyone; leaf hosts link to hub and each other.
	l.AddLinks("http://a.com/p0.html", []string{
		"http://hub.com/p0.html", "http://b.com/p0.html", "http://a.com/p1.html"})
	l.AddLinks("http://b.com/p0.html", []string{
		"http://hub.com/p0.html", "http://b.com/p1.html"})
	l.AddLinks("http://c.com/p0.html", []string{"http://hub.com/p1.html"})
	l.AddLinks("http://hub.com/p0.html", []string{"http://a.com/p0.html"})
	return l
}

func TestFromLinkDBDropsSelfLoops(t *testing.T) {
	g := FromLinkDB(buildLinkDB())
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d (%v), want 4", len(g.Nodes), g.Nodes)
	}
	for i, outs := range g.out {
		for _, to := range outs {
			if to == i {
				t.Fatal("self-loop survived aggregation")
			}
		}
	}
}

func TestPageRankHubWins(t *testing.T) {
	g := FromLinkDB(buildLinkDB())
	ranks := g.PageRank(0.85, 100, 1e-9)
	if ranks["hub.com"] <= ranks["b.com"] || ranks["hub.com"] <= ranks["c.com"] {
		t.Errorf("hub not top: %v", ranks)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := FromLinkDB(buildLinkDB())
	ranks := g.PageRank(0.85, 100, 1e-12)
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("rank sum = %v", sum)
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := FromLinkDB(crawldb.NewLinkDB())
	if len(g.PageRank(0.85, 10, 1e-6)) != 0 {
		t.Error("empty graph produced ranks")
	}
}

func TestPageRankDanglingNodes(t *testing.T) {
	l := crawldb.NewLinkDB()
	// b.com has no out-links at all (dangling).
	l.AddLinks("http://a.com/p0.html", []string{"http://b.com/p0.html"})
	g := FromLinkDB(l)
	ranks := g.PageRank(0.85, 200, 1e-12)
	var sum float64
	for _, r := range ranks {
		if r <= 0 {
			t.Errorf("non-positive rank: %v", ranks)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("dangling sum = %v", sum)
	}
}

func TestTopHosts(t *testing.T) {
	ranks := map[string]float64{"a": 0.1, "b": 0.5, "c": 0.3, "d": 0.1}
	top := TopHosts(ranks, 2)
	if len(top) != 2 || top[0].Host != "b" || top[1].Host != "c" {
		t.Errorf("top = %v", top)
	}
	// Ties broken by name.
	top4 := TopHosts(ranks, 4)
	if top4[2].Host != "a" || top4[3].Host != "d" {
		t.Errorf("tie order = %v", top4)
	}
	if got := TopHosts(ranks, 100); len(got) != 4 {
		t.Errorf("oversized k returned %d", len(got))
	}
}

func TestLocality(t *testing.T) {
	l := crawldb.NewLinkDB()
	l.AddLinks("http://a.com/p0.html", []string{
		"http://a.com/p1.html", "http://a.com/p2.html", "http://b.com/p0.html"})
	s := Locality(l)
	if s.IntraHost != 2 || s.CrossHost != 1 {
		t.Errorf("locality = %+v", s)
	}
	if got := s.IntraShare(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("intra share = %v", got)
	}
	if (LocalityStats{}).IntraShare() != 0 {
		t.Error("empty stats share != 0")
	}
}

func BenchmarkPageRank(b *testing.B) {
	l := crawldb.NewLinkDB()
	for i := 0; i < 200; i++ {
		src := "http://h" + string(rune('a'+i%26)) + ".com/p0.html"
		l.AddLinks(src, []string{"http://hub.com/p0.html"})
	}
	g := FromLinkDB(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.PageRank(0.85, 50, 1e-9)
	}
}
