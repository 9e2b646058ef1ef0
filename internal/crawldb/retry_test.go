package crawldb

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestRequeueBackoffEligibility(t *testing.T) {
	db := New()
	db.Inject("http://a.com/1", "a.com")
	db.Inject("http://a.com/2", "a.com")
	list := db.GenerateAt(10, 10, 0)
	if len(list) != 2 {
		t.Fatalf("generated %d, want 2", len(list))
	}
	// First URL fails, retried at t=500; second succeeds.
	if got := db.Requeue("http://a.com/1", "a.com", 500); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
	db.SetStatus("http://a.com/2", Fetched)

	if list = db.GenerateAt(10, 10, 499); list != nil {
		t.Fatalf("backoff not honored: got %v at t=499", list)
	}
	if next, ok := db.NextEligible(); !ok || next != 500 {
		t.Fatalf("NextEligible = %d,%v, want 500,true", next, ok)
	}
	list = db.GenerateAt(10, 10, 500)
	if len(list) != 1 || list[0].URL != "http://a.com/1" {
		t.Fatalf("retry not generated at t=500: %v", list)
	}
	if db.Attempts("http://a.com/1") != 1 {
		t.Fatalf("attempts = %d", db.Attempts("http://a.com/1"))
	}
	// Terminal status clears the retry state.
	db.SetStatus("http://a.com/1", Failed)
	if db.Attempts("http://a.com/1") != 0 {
		t.Fatal("terminal status did not clear retry state")
	}
}

func TestGenerateAtPreservesQueueOrder(t *testing.T) {
	db := New()
	for _, u := range []string{"http://a.com/1", "http://a.com/2", "http://a.com/3"} {
		db.Inject(u, "a.com")
	}
	db.GenerateAt(10, 10, 0)
	// Requeue out of order: /3 eligible first, then /1.
	db.Requeue("http://a.com/1", "a.com", 800)
	db.Requeue("http://a.com/3", "a.com", 200)
	db.SetStatus("http://a.com/2", Fetched)

	list := db.GenerateAt(10, 10, 200)
	if len(list) != 1 || list[0].URL != "http://a.com/3" {
		t.Fatalf("at t=200 got %v, want only /3", list)
	}
	list = db.GenerateAt(10, 10, 800)
	if len(list) != 1 || list[0].URL != "http://a.com/1" {
		t.Fatalf("at t=800 got %v, want /1", list)
	}
	if db.Pending() != 0 {
		t.Fatalf("pending = %d", db.Pending())
	}
}

func TestDeferKeepsAttemptCount(t *testing.T) {
	db := New()
	db.Inject("http://b.com/1", "b.com")
	db.GenerateAt(10, 10, 0)
	db.Defer("http://b.com/1", "b.com", 3000)
	if got := db.Attempts("http://b.com/1"); got != 0 {
		t.Fatalf("Defer consumed an attempt: %d", got)
	}
	if list := db.GenerateAt(10, 10, 2999); list != nil {
		t.Fatal("deferred URL generated early")
	}
	if list := db.GenerateAt(10, 10, 3000); len(list) != 1 {
		t.Fatal("deferred URL not generated at eligibility")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := New()
	db.Inject("http://a.com/1", "a.com")
	db.Inject("http://a.com/2", "a.com")
	db.Inject("http://b.com/1", "b.com")
	db.GenerateAt(2, 2, 0)
	db.SetStatus("http://a.com/1", Fetched)
	db.Requeue("http://a.com/2", "a.com", 700)

	snap := db.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := FromSnapshot(decoded)

	if restored.Pending() != db.Pending() || restored.Known() != db.Known() {
		t.Fatalf("pending/known diverge: %d/%d vs %d/%d",
			restored.Pending(), restored.Known(), db.Pending(), db.Known())
	}
	if restored.Attempts("http://a.com/2") != 1 {
		t.Fatal("retry state lost in round trip")
	}
	// Both must generate identical fetch lists from here on.
	for _, now := range []int64{0, 700} {
		a := db.GenerateAt(10, 10, now)
		b := restored.GenerateAt(10, 10, now)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("at t=%d lists diverge: %v vs %v", now, a, b)
		}
	}
}

func TestLinkSnapshotRoundTrip(t *testing.T) {
	l := NewLinkDB()
	l.AddLinks("http://a.com/1", []string{"http://b.com/1", "http://b.com/2"})
	l.AddLinks("http://b.com/1", []string{"http://a.com/1"})

	restored := FromLinkSnapshot(l.Snapshot())
	if restored.Edges() != l.Edges() {
		t.Fatalf("edges = %d, want %d", restored.Edges(), l.Edges())
	}
	if inDegree(restored, "http://b.com/2") != 1 || inDegree(restored, "http://a.com/1") != 1 {
		t.Fatal("in-degrees lost")
	}
	if !reflect.DeepEqual(restored.Pages(), l.Pages()) {
		t.Fatal("page sets diverge")
	}
}
