package pillars

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// allOn builds a set with every pillar attached.
func allOn(seed uint64) Set {
	return Set{
		Metrics: obs.New(),
		Trace:   trace.NewRecorder(trace.DefaultConfig(seed)),
		Log:     evlog.NewSink(evlog.DefaultConfig(seed)),
		Series:  series.New(series.DefaultConfig()),
		Prof:    prof.New(prof.Config{}),
	}
}

// exercise writes shard-distinct content through every attached pillar.
func exercise(s Set, shard int) {
	s.Metrics.Counter("pillars.test.pages").Add(int64(10 + shard))
	s.Metrics.Gauge("pillars.test.pending").Set(int64(shard))
	s.Metrics.Histogram("pillars.test.cost.ms", obs.DefaultMsBuckets...).Observe(float64(100 * (shard + 1)))
	lg := s.Log.Logger("pillars.test")
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("http://shard%d/page%d", shard, i)
		tc := s.Trace.Start("pillars.page", key, int64(i), trace.Int("shard", int64(shard)))
		tc.Event("page.done", int64(i+1))
		if i == 2 {
			tc.Error("test_error", int64(i+1))
		}
		tc.Finish(int64(i + 1))
		lg.Warn("page.done", int64(i+1), trace.String("key", key))
	}
	s.Series.Sample(1000, s.Metrics.Snapshot())
	for i := 0; i <= shard; i++ {
		s.Prof.Scope("pillars.test.stage").Enter().Exit()
	}
}

// TestOffStaysNil: a pillar that is off snapshots to nil — not to the
// empty non-nil snapshot a nil recorder or sink returns on its own.
func TestOffStaysNil(t *testing.T) {
	snap := Set{}.Snapshot()
	if snap.Traces != nil || snap.Logs != nil || snap.Series != nil || snap.Profile != nil {
		t.Fatalf("empty Set snapshot has a non-nil pillar: %+v", snap)
	}
	if !reflect.DeepEqual(snap.Metrics, obs.Snapshot{}) {
		t.Fatalf("empty Set snapshot has metrics: %+v", snap.Metrics)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"metrics":{}}` {
		t.Fatalf("empty snapshot marshals as %s", blob)
	}
	// Loading into an empty set, and loading an empty snapshot, are no-ops.
	Set{}.Load(allOnSnapshot())
	allOn(1).Load(Snapshot{})
}

func allOnSnapshot() Snapshot {
	s := allOn(1)
	exercise(s, 0)
	return s.Snapshot()
}

// TestLoadSnapshotRoundTrip: Load into fresh handles, then Snapshot,
// reproduces the snapshot.
func TestLoadSnapshotRoundTrip(t *testing.T) {
	want := allOnSnapshot()
	fresh := allOn(1)
	fresh.Load(want)
	got := fresh.Snapshot()
	if !reflect.DeepEqual(got, want) {
		a, _ := json.MarshalIndent(want, "", " ")
		b, _ := json.MarshalIndent(got, "", " ")
		t.Fatalf("round trip changed the snapshot\n--- want\n%s\n--- got\n%s", a, b)
	}
}

// TestMergeDelegates: Merge over per-shard snapshots is exactly the four
// per-pillar merges applied in shard order — what shard.Finish spelled
// out pillar by pillar before it had Merge.
func TestMergeDelegates(t *testing.T) {
	var snaps []Snapshot
	for shard := 0; shard < 3; shard++ {
		s := allOn(7)
		s.Series = nil // shards carry no series; the fleet recorder is runner-owned
		exercise(s, shard)
		snaps = append(snaps, s.Snapshot())
	}
	got := Merge(snaps...)
	want := Snapshot{
		Metrics: snaps[0].Metrics.Merge(snaps[1].Metrics).Merge(snaps[2].Metrics),
		Traces:  trace.Merge(snaps[0].Traces, snaps[1].Traces, snaps[2].Traces),
		Logs:    evlog.Merge(snaps[0].Logs, snaps[1].Logs, snaps[2].Logs),
		Profile: prof.Merge(snaps[0].Profile, snaps[1].Profile, snaps[2].Profile),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge differs from the per-pillar merges:\n got %+v\nwant %+v", got, want)
	}
	if got.Metrics.Counter("pillars.test.pages") != 10+11+12 {
		t.Errorf("merged counter = %d", got.Metrics.Counter("pillars.test.pages"))
	}
	if n := len(got.Traces.Traces); n != 9 {
		t.Errorf("merged traces = %d, want 9", n)
	}
}

// TestMergeKeepsOffPillarsNil: merging snapshots that all have a pillar
// off leaves it off, and a pillar only some inputs have is merged from
// those (the supervised crawl's diagnosis merges a possibly-untraced
// crawl with its always-traced supervisor).
func TestMergeKeepsOffPillarsNil(t *testing.T) {
	metricsOnly := Set{Metrics: obs.New()}
	exercise(metricsOnly, 0)
	off := metricsOnly.Snapshot()
	if got := Merge(off, off); got.Traces != nil || got.Logs != nil || got.Series != nil || got.Profile != nil {
		t.Fatalf("merge of pillar-off snapshots turned a pillar on: %+v", got)
	}
	on := allOnSnapshot()
	got := Merge(off, on)
	if !reflect.DeepEqual(got.Traces, trace.Merge(on.Traces)) || !reflect.DeepEqual(got.Logs, evlog.Merge(on.Logs)) {
		t.Fatal("merge dropped a pillar only the second snapshot had")
	}
	if got.Series != on.Series {
		t.Fatal("merge did not carry the only series through")
	}
	if got.Metrics.Counter("pillars.test.pages") != 20 {
		t.Errorf("merged counter = %d, want 20", got.Metrics.Counter("pillars.test.pages"))
	}
}
