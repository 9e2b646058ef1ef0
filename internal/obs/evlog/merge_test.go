package evlog

import (
	"maps"
	"testing"

	"webtextie/internal/obs/trace"
)

// sinkWith emits n info records from one component at the given times.
func sinkWith(component string, times ...int64) *Sink {
	s := NewSink(DefaultConfig(1))
	l := s.Logger(component)
	for _, at := range times {
		l.Info("unit.event", at)
	}
	return s
}

func TestMergeInterleavesByTime(t *testing.T) {
	a := sinkWith("shard0", 10, 30, 50).Snapshot()
	b := sinkWith("shard1", 20, 40).Snapshot()
	m := Merge(a, b)

	if len(m.Records) != 5 {
		t.Fatalf("merged %d records, want 5", len(m.Records))
	}
	want := []struct {
		at        int64
		component string
	}{{10, "shard0"}, {20, "shard1"}, {30, "shard0"}, {40, "shard1"}, {50, "shard0"}}
	for i, w := range want {
		r := m.Records[i]
		if r.AtMs != w.at || r.Component != w.component {
			t.Errorf("record %d = (%d, %s), want (%d, %s)", i, r.AtMs, r.Component, w.at, w.component)
		}
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	a := sinkWith("shard0", 10, 20, 20).Snapshot()
	b := sinkWith("shard1", 20, 15).Snapshot()
	ab, ba := Merge(a, b), Merge(b, a)
	if ab.Logfmt() != ba.Logfmt() {
		t.Error("merge order changed the canonical export")
	}
	if snapJSON(t, ab) != snapJSON(t, ba) {
		t.Error("merge order changed the merged snapshot")
	}
}

func TestMergeSumsTotalsAndStats(t *testing.T) {
	a := sinkWith("shard0", 10, 20).Snapshot()
	b := sinkWith("shard0", 30).Snapshot()
	m := Merge(a, b)

	if emitted(m) != 3 || emitted(m) != emitted(a)+emitted(b) {
		t.Errorf("merged totals count %d emitted records, want %d + %d = 3", emitted(m), emitted(a), emitted(b))
	}
	for k, v := range a.Totals {
		if m.Totals[k] != v+b.Totals[k] {
			t.Errorf("merged total %q = %d, want %d", k, m.Totals[k], v+b.Totals[k])
		}
	}
}

// TestMergeSingleShardIsIdentity pins the DoP-1 degenerate case: a fleet
// of one shard must export exactly what the shard exported alone.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	a := sinkWith("shard0", 10, 20, 30).Snapshot()
	m := Merge(a)
	if m.Logfmt() != a.Logfmt() {
		t.Error("single-shard merge changed the logfmt export")
	}
	if !maps.Equal(m.Totals, a.Totals) {
		t.Errorf("single-shard merge totals = %v, want %v", m.Totals, a.Totals)
	}
}

// TestMergeEmptyShardPillars covers shards that logged nothing: a fresh
// sink's snapshot must be absorbed without disturbing the export,
// wherever it sits in the shard order.
func TestMergeEmptyShardPillars(t *testing.T) {
	empty := NewSink(DefaultConfig(1)).Snapshot()
	if len(empty.Records) != 0 || len(empty.Totals) != 0 {
		t.Fatalf("fresh sink snapshot not empty: %+v", empty)
	}
	a := sinkWith("shard0", 10, 30).Snapshot()
	b := sinkWith("shard1", 20).Snapshot()
	want := Merge(a, b).Logfmt()
	for name, m := range map[string]*Snapshot{
		"empty-first":  Merge(empty, a, b),
		"empty-middle": Merge(a, empty, b),
		"empty-last":   Merge(a, b, empty),
	} {
		if m.Logfmt() != want {
			t.Errorf("%s: empty shard pillar changed the merged export", name)
		}
	}
	if allEmpty := Merge(empty, NewSink(DefaultConfig(2)).Snapshot()); len(allEmpty.Records) != 0 {
		t.Errorf("all-empty merge produced records: %+v", allEmpty.Records)
	}
}

// TestMergeFencedShardDegraded models a degraded fleet: a fenced shard
// contributes no snapshot (nil), and the merge must render exactly the
// surviving shards' fleet — the fenced hole is invisible to the export.
func TestMergeFencedShardDegraded(t *testing.T) {
	s0 := sinkWith("shard0", 10, 30).Snapshot()
	s2 := sinkWith("shard2", 20, 40).Snapshot()
	degraded := Merge(s0, nil, s2)
	if degraded.Logfmt() != Merge(s0, s2).Logfmt() {
		t.Error("fenced-shard merge differs from the surviving-shards merge")
	}
	if emitted(degraded) != emitted(s0)+emitted(s2) {
		t.Errorf("degraded merge counts %d emitted records, want %d",
			emitted(degraded), emitted(s0)+emitted(s2))
	}
}

func TestMergeDeepCopiesAttrsAndSkipsNil(t *testing.T) {
	s := NewSink(DefaultConfig(1))
	s.Logger("shard0").Info("unit.event", 5, trace.String("k", "orig"))
	a := s.Snapshot()
	m := Merge(nil, a)
	if len(m.Records) != 1 {
		t.Fatalf("merged %d records, want 1", len(m.Records))
	}
	m.Records[0].Attrs[0].Value = "mutated"
	if a.Records[0].Attrs[0].Value == "mutated" {
		t.Error("mutating the merged snapshot reached the input snapshot")
	}
	if empty := Merge(); len(empty.Records) != 0 || len(empty.Totals) != 0 {
		t.Errorf("empty merge = %+v, want zero snapshot", empty)
	}
}
