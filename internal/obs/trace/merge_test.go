package trace

import (
	"strings"
	"testing"
)

// recorderWith starts and finishes n traces with the given key prefix and
// returns the recorder.
func recorderWith(seed uint64, prefix string, n int) *Recorder {
	r := NewRecorder(DefaultConfig(seed))
	for i := 0; i < n; i++ {
		at := int64(10 * (i + 1))
		ctx := r.Start("fetch", prefix+string(rune('a'+i)), at)
		ctx.End(at + 5)
		ctx.Finish(at + 5)
	}
	return r
}

func TestMergeRenumbersStartIndexes(t *testing.T) {
	a := recorderWith(1, "a/", 3).Snapshot()
	b := recorderWith(1, "b/", 4).Snapshot()
	m := Merge(a, b)

	if m.StartSeq != a.StartSeq+b.StartSeq {
		t.Fatalf("merged StartSeq = %d, want %d", m.StartSeq, a.StartSeq+b.StartSeq)
	}
	if len(m.Traces) != len(a.Traces)+len(b.Traces) {
		t.Fatalf("merged %d traces, want %d", len(m.Traces), len(a.Traces)+len(b.Traces))
	}
	// Shard 0 keeps its indexes; shard 1 is rebased past shard 0's full
	// start sequence; the concatenation is sorted by StartIndex.
	for i, tr := range m.Traces {
		if i > 0 && m.Traces[i-1].StartIndex >= tr.StartIndex {
			t.Fatalf("merged traces not strictly ordered at %d", i)
		}
	}
	for i, tr := range a.Traces {
		if m.Traces[i].StartIndex != tr.StartIndex {
			t.Errorf("shard-0 trace %d renumbered: %d -> %d", i, tr.StartIndex, m.Traces[i].StartIndex)
		}
	}
	for i, tr := range b.Traces {
		if got, want := m.Traces[len(a.Traces)+i].StartIndex, tr.StartIndex+a.StartSeq; got != want {
			t.Errorf("shard-1 trace %d index = %d, want %d", i, got, want)
		}
	}
}

func TestMergeIsDeepCopy(t *testing.T) {
	a := recorderWith(1, "a/", 2).Snapshot()
	m := Merge(a, recorderWith(1, "b/", 2).Snapshot())
	m.Traces[0].Key = "mutated"
	m.Traces[0].Spans[0].Name = "mutated"
	if a.Traces[0].Key == "mutated" || a.Traces[0].Spans[0].Name == "mutated" {
		t.Error("mutating the merged snapshot reached the input snapshot")
	}
}

// TestMergeLeavesInputsUnchanged: Merge copies its inputs' traces and
// shares their attr and event slices, so neither merging nor a recorder
// that loads the merge and emits on must change an input snapshot.
func TestMergeLeavesInputsUnchanged(t *testing.T) {
	ra, rb := recorderWith(1, "a/", 3), recorderWith(1, "b/", 3)
	for i, r := range []*Recorder{ra, rb} {
		tc := r.Start("crawler.url", []string{"a/open", "b/open"}[i], 100, String("host", "h0"))
		tc.Event("frontier.inject", 100, Int("depth", 1))
		tc.Error("breaker_open", 101)
	}
	a, b := ra.Snapshot(), rb.Snapshot()
	wantA, wantB := snapJSON(t, a), snapJSON(t, b)
	m := Merge(a, b)
	resumed := NewRecorder(DefaultConfig(1))
	resumed.Load(m)
	for _, tr := range m.Traces {
		if !tr.Done {
			tc := resumed.Context(tr.ID)
			tc.Event("fetch.ok", 200, Int("bytes", 10))
			tc.Error("aaa_first", 201, String("cause", "late"))
			tc.Finish(202)
		}
	}
	if snapJSON(t, a) != wantA || snapJSON(t, b) != wantB {
		t.Error("merging, or emitting on a recorder loaded from the merge, changed an input snapshot")
	}
}

func TestMergeSumsStatsAndConcatenatesMarks(t *testing.T) {
	a, b := recorderWith(1, "a/", 2).Snapshot(), recorderWith(1, "b/", 2).Snapshot()
	a.Stats.Dropped, a.Stats.PinDropped = 3, 1
	b.Stats.Dropped, b.Stats.DroppedActive = 4, 2

	m := Merge(a, b)
	if m.Stats.Dropped != 7 || m.Stats.DroppedActive != 2 || m.Stats.PinDropped != 1 {
		t.Errorf("merged stats = %+v, want sums", m.Stats)
	}
}

func TestMergeSkipsNilAndMergesNothing(t *testing.T) {
	m := Merge(nil, recorderWith(1, "a/", 1).Snapshot(), nil)
	if len(m.Traces) != 1 {
		t.Fatalf("merged %d traces, want 1", len(m.Traces))
	}
	empty := Merge()
	if empty.StartSeq != 0 || len(empty.Traces) != 0 {
		t.Errorf("empty merge = %+v, want zero snapshot", empty)
	}
	// An empty merged snapshot must still export without panicking.
	_ = empty.Text()
}

// TestMergeSingleShardIsIdentity pins the DoP-1 degenerate case: a fleet
// of one shard must export exactly what the shard exported alone.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	a := recorderWith(1, "a/", 3).Snapshot()
	m := Merge(a)
	if m.Text() != a.Text() {
		t.Error("single-shard merge changed the text export")
	}
	if snapJSON(t, m) != snapJSON(t, a) {
		t.Error("single-shard merge changed the snapshot")
	}
}

// TestMergeEmptyShardPillars covers shards that traced nothing: a fresh
// recorder's snapshot must be absorbed without disturbing the export,
// wherever it sits in the shard order.
func TestMergeEmptyShardPillars(t *testing.T) {
	empty := NewRecorder(DefaultConfig(1)).Snapshot()
	if empty.StartSeq != 0 || len(empty.Traces) != 0 {
		t.Fatalf("fresh recorder snapshot not empty: %+v", empty)
	}
	a := recorderWith(1, "a/", 2).Snapshot()
	b := recorderWith(1, "b/", 2).Snapshot()
	want := Merge(a, b).Text()
	for name, m := range map[string]*Snapshot{
		"empty-first":  Merge(empty, a, b),
		"empty-middle": Merge(a, empty, b),
		"empty-last":   Merge(a, b, empty),
	} {
		if m.Text() != want {
			t.Errorf("%s: empty shard pillar changed the merged export", name)
		}
		if m.StartSeq != a.StartSeq+b.StartSeq {
			t.Errorf("%s: merged StartSeq = %d, want %d", name, m.StartSeq, a.StartSeq+b.StartSeq)
		}
	}
	allEmpty := Merge(NewRecorder(DefaultConfig(1)).Snapshot(), NewRecorder(DefaultConfig(2)).Snapshot())
	if allEmpty.Text() != "" && len(allEmpty.Traces) != 0 {
		t.Errorf("all-empty merge produced traces: %+v", allEmpty.Traces)
	}
}

// TestMergeFencedShardDegraded models a degraded fleet: a fenced shard
// contributes no snapshot (nil), and the merge must render exactly the
// surviving shards' fleet — the fenced hole is invisible to the export.
func TestMergeFencedShardDegraded(t *testing.T) {
	s0 := recorderWith(1, "s0/", 2).Snapshot()
	s2 := recorderWith(1, "s2/", 2).Snapshot()
	degraded := Merge(s0, nil, s2)
	if degraded.Text() != Merge(s0, s2).Text() {
		t.Error("fenced-shard merge differs from the surviving-shards merge")
	}
	for _, key := range []string{"s0/a", "s0/b", "s2/a", "s2/b"} {
		if !strings.Contains(degraded.Text(), key) {
			t.Errorf("degraded merge lost surviving trace %q", key)
		}
	}
	if degraded.StartSeq != s0.StartSeq+s2.StartSeq {
		t.Errorf("degraded StartSeq = %d, want %d", degraded.StartSeq, s0.StartSeq+s2.StartSeq)
	}
}

func TestMergedSnapshotExports(t *testing.T) {
	m := Merge(recorderWith(1, "a/", 2).Snapshot(), recorderWith(1, "b/", 2).Snapshot())
	text := m.Text()
	for _, key := range []string{"a/a", "a/b", "b/a", "b/b"} {
		if !strings.Contains(text, key) {
			t.Errorf("merged text export missing trace key %q", key)
		}
	}
}
