package crawldb

import (
	"fmt"
	"math"
	"testing"
)

func TestInjectDedup(t *testing.T) {
	db := New()
	if !db.Inject("http://a.com/1", "a.com") {
		t.Fatal("first inject rejected")
	}
	if db.Inject("http://a.com/1", "a.com") {
		t.Fatal("duplicate inject accepted")
	}
	if db.Pending() != 1 || db.Known() != 1 {
		t.Errorf("pending=%d known=%d", db.Pending(), db.Known())
	}
}

func TestGenerateRespectsPerHostCap(t *testing.T) {
	db := New()
	for i := 0; i < 20; i++ {
		db.Inject(fmt.Sprintf("http://a.com/%d", i), "a.com")
		db.Inject(fmt.Sprintf("http://b.com/%d", i), "b.com")
	}
	list := db.GenerateAt(100, 5, math.MaxInt64)
	perHost := map[string]int{}
	for _, it := range list {
		perHost[it.Host]++
	}
	if perHost["a.com"] != 5 || perHost["b.com"] != 5 {
		t.Errorf("per-host counts: %v", perHost)
	}
	if db.Pending() != 30 {
		t.Errorf("pending = %d, want 30", db.Pending())
	}
}

func TestGenerateRespectsTotal(t *testing.T) {
	db := New()
	for i := 0; i < 50; i++ {
		db.Inject(fmt.Sprintf("http://h%d.com/x", i), fmt.Sprintf("h%d.com", i))
	}
	list := db.GenerateAt(7, 500, math.MaxInt64)
	if len(list) != 7 {
		t.Errorf("generated %d, want 7", len(list))
	}
}

func TestGenerateDrainsFrontier(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.Inject(fmt.Sprintf("http://a.com/%d", i), "a.com")
	}
	seen := map[string]bool{}
	for {
		list := db.GenerateAt(3, 500, math.MaxInt64)
		if len(list) == 0 {
			break
		}
		for _, it := range list {
			if seen[it.URL] {
				t.Fatalf("URL %s generated twice", it.URL)
			}
			seen[it.URL] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("drained %d URLs, want 10", len(seen))
	}
	if db.Pending() != 0 {
		t.Errorf("pending = %d after drain", db.Pending())
	}
}

func TestGenerateDeterministicOrder(t *testing.T) {
	build := func() *CrawlDB {
		db := New()
		db.Inject("http://b.com/1", "b.com")
		db.Inject("http://a.com/1", "a.com")
		db.Inject("http://a.com/2", "a.com")
		return db
	}
	l1 := build().GenerateAt(10, 500, math.MaxInt64)
	l2 := build().GenerateAt(10, 500, math.MaxInt64)
	if len(l1) != len(l2) {
		t.Fatal("lengths differ")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	// Injection order preserved: b.com first.
	if l1[0].Host != "b.com" {
		t.Errorf("first host = %s, want b.com (injection order)", l1[0].Host)
	}
}

func TestStatusLifecycle(t *testing.T) {
	db := New()
	db.Inject("http://a.com/1", "a.com")
	s, ok := db.status["http://a.com/1"]
	if !ok || s != Unfetched {
		t.Fatalf("status = %v/%v", s, ok)
	}
	db.SetStatus("http://a.com/1", Fetched)
	if s := db.status["http://a.com/1"]; s != Fetched {
		t.Errorf("status = %v after SetStatus", s)
	}
	if _, ok := db.status["http://unknown/"]; ok {
		t.Error("unknown URL has status")
	}
}

// inDegree counts the recorded links pointing at a URL.
func inDegree(l *LinkDB, url string) int {
	n := 0
	for _, targets := range l.out {
		for _, t := range targets {
			if t == url {
				n++
			}
		}
	}
	return n
}

func TestLinkDB(t *testing.T) {
	l := NewLinkDB()
	l.AddLinks("http://a.com/1", []string{"http://b.com/1", "http://c.com/1"})
	l.AddLinks("http://b.com/1", []string{"http://c.com/1"})
	if l.Edges() != 3 {
		t.Errorf("edges = %d", l.Edges())
	}
	if got := inDegree(l, "http://c.com/1"); got != 2 {
		t.Errorf("in-degree = %d", got)
	}
	if got := len(l.out["http://a.com/1"]); got != 2 {
		t.Errorf("out-links = %d", got)
	}
	pages := l.Pages()
	if len(pages) != 2 || pages[0] != "http://a.com/1" {
		t.Errorf("pages = %v", pages)
	}
}

func TestLinkDBReplace(t *testing.T) {
	l := NewLinkDB()
	l.AddLinks("http://a.com/1", []string{"http://b.com/1"})
	l.AddLinks("http://a.com/1", []string{"http://c.com/1", "http://d.com/1"})
	if l.Edges() != 2 {
		t.Errorf("edges = %d after replace", l.Edges())
	}
	if inDegree(l, "http://b.com/1") != 0 {
		t.Error("old target in-degree not decremented")
	}
	if inDegree(l, "http://c.com/1") != 1 {
		t.Error("new target in-degree wrong")
	}
}

func TestLinkDBForEachSorted(t *testing.T) {
	l := NewLinkDB()
	l.AddLinks("http://z.com/1", nil)
	l.AddLinks("http://a.com/1", nil)
	var order []string
	l.ForEach(func(src string, _ []string) { order = append(order, src) })
	if len(order) != 2 || order[0] != "http://a.com/1" {
		t.Errorf("ForEach order = %v", order)
	}
}
