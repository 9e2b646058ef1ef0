package prof

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sampleSnapshot is a small two-level scope tree with fixed costs: a
// cycle scope bracketing three stages, and a checkpoint scope beside it.
func sampleSnapshot() *Snapshot {
	p := New(Config{})
	p.Load(&Snapshot{Scopes: []*ScopeData{
		{Name: "crawl.checkpoint", Calls: 1, WallNs: 1_000_000},
		{Name: "crawl.cycle", Calls: 2, WallNs: 9_000_000},
		{Name: "crawl.cycle.classify", Calls: 7, WallNs: 1_750_000},
		{Name: "crawl.cycle.fetch", Calls: 10, WallNs: 5_000_000},
		{Name: "crawl.cycle.filter", Calls: 3, WallNs: 1_750_000},
		{Name: "crawl.cycle.frontier"},
	}})
	return p.Snapshot()
}

func TestWallLane(t *testing.T) {
	p := New(Config{})
	sc := p.Scope("io.read")
	for i := 0; i < 3; i++ {
		sc.Enter().Exit()
	}
	sd := p.Snapshot().Get("io.read")
	if sd == nil || sd.Calls != 3 {
		t.Fatalf("bracketed scope = %+v, want calls=3", sd)
	}
	if sd.WallNs < 0 {
		t.Errorf("brackets charged negative wall time: %d ns", sd.WallNs)
	}
	if again := p.Scope("io.read"); again != sc {
		t.Error("resolving a scope twice returned two handles")
	}
}

func TestConcurrentBrackets(t *testing.T) {
	p := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := p.Scope("hot.loop")
			for i := 0; i < 100; i++ {
				sc.Enter().Exit()
			}
			p.Snapshot()
		}()
	}
	wg.Wait()
	if sd := p.Snapshot().Get("hot.loop"); sd == nil || sd.Calls != 800 {
		t.Errorf("hot.loop = %+v, want 800 calls", sd)
	}
}

func TestTopKOrderAndLimit(t *testing.T) {
	s := sampleSnapshot()
	if got := s.totalNs(); got != 10_000_000 {
		t.Fatalf("totalNs = %d, want 10ms (cycle + checkpoint; the stages are inside cycle)", got)
	}
	// Without their parent, sibling stages are each outermost.
	if got := (&Snapshot{Scopes: s.Scopes[3:5]}).totalNs(); got != 6_750_000 {
		t.Errorf("totalNs over fetch+filter = %d, want 6.75ms", got)
	}
	lines := strings.Split(strings.TrimRight(s.Text(0), "\n"), "\n")
	var names []string
	for _, l := range lines {
		names = append(names, strings.Fields(l)[0])
	}
	// Ties (classify, filter) break by name; frontier never ran.
	want := []string{"SCOPE", "crawl.cycle", "crawl.cycle.fetch", "crawl.cycle.classify", "crawl.cycle.filter", "crawl.checkpoint", "TOTAL"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("row order = %v, want %v", names, want)
	}
	if f := strings.Fields(lines[2]); !reflect.DeepEqual(f, []string{"crawl.cycle.fetch", "10", "5.000", "50.0%"}) {
		t.Errorf("fetch row = %v", f)
	}
	if f := strings.Fields(lines[6]); !reflect.DeepEqual(f, []string{"TOTAL", "10.000"}) {
		t.Errorf("total row = %v", f)
	}
	if top := strings.Split(strings.TrimRight(s.Text(2), "\n"), "\n"); len(top) != 4 {
		t.Errorf("Text(2) rendered %d lines, want header + 2 rows + TOTAL:\n%s", len(top), s.Text(2))
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	resumed := New(Config{})
	resumed.Load(&back)
	if got := resumed.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Errorf("snapshot changed across JSON + Load:\n%s\nvs\n%s", got.Text(0), snap.Text(0))
	}
	// Brackets continue the loaded accumulators.
	resumed.Scope("crawl.cycle.fetch").Enter().Exit()
	if got := resumed.Snapshot().Get("crawl.cycle.fetch"); got.Calls != 11 || got.WallNs < 5_000_000 {
		t.Errorf("fetch after one more bracket = %+v, want 11 calls on top of 5ms", got)
	}
}

func TestMergeSumsAcrossShards(t *testing.T) {
	shard := func(fetchNs int64) *Snapshot {
		return &Snapshot{Scopes: []*ScopeData{
			{Name: "crawl.cycle.fetch", Calls: 1, WallNs: fetchNs},
			{Name: "crawl.cycle.filter", Calls: 1, WallNs: 10},
		}}
	}
	merged := Merge(shard(100), nil, shard(250), &Snapshot{Scopes: []*ScopeData{{Name: "crawl.checkpoint", Calls: 4}}})
	want := &Snapshot{Scopes: []*ScopeData{
		{Name: "crawl.checkpoint", Calls: 4},
		{Name: "crawl.cycle.fetch", Calls: 2, WallNs: 350},
		{Name: "crawl.cycle.filter", Calls: 2, WallNs: 20},
	}}
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged = %s\nwant %s", merged.Text(0), want.Text(0))
	}
}

func TestNilSafety(t *testing.T) {
	var p *Profiler
	sc := p.Scope("anything.goes")
	sc.Enter().Exit()
	if snap := p.Snapshot(); snap != nil {
		t.Errorf("nil profiler snapshot = %+v, want nil", snap)
	}
	p.Load(&Snapshot{})
	New(Config{}).Load(nil)
	var none *Snapshot
	if got := none.Text(5); !strings.Contains(got, "TOTAL") {
		t.Errorf("nil snapshot Text = %q, want header+TOTAL", got)
	}
	if none.Get("x") != nil || none.totalNs() != 0 {
		t.Error("nil snapshot accessors are not empty")
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	sc := New(Config{}).Scope("hot.loop")
	if n := testing.AllocsPerRun(100, func() { sc.Enter().Exit() }); n != 0 {
		t.Errorf("Enter/Exit allocates %.1f per bracket, want 0", n)
	}
	var off Scope
	if n := testing.AllocsPerRun(100, func() { off.Enter().Exit() }); n != 0 {
		t.Errorf("disabled scope allocates %.1f per bracket, want 0", n)
	}
}

func TestScopeName(t *testing.T) {
	if got := ScopeName("dataflow", "op", "pos_tag"); got != "dataflow.op.pos_tag" {
		t.Errorf("ScopeName = %q", got)
	}
}
