package crawler

import "testing"

// TestStepFaultFiresOncePerCycle: the supervision crash hook fires once
// per Step, after the first fetch has already mutated crawl state —
// a panic there leaves a genuinely half-stepped crawler, which is what
// checkpoint rollback must be able to undo. Clearing the hook stops it.
func TestStepFaultFiresOncePerCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPages = 100
	cfg.FetchListSize = 40 // small cycles so the budget spans several Steps
	p := chaosPipeline(t, 40, nil)
	c := New(cfg, p.web, p.clf)
	c.Seed(defaultSeeds(t, p))

	fired := 0
	var fetchedAtFire int
	c.WithStepFault(func() {
		fired++
		fetchedAtFire = c.stats.Fetched
	})
	fetchedBefore := c.stats.Fetched
	if !c.Step() {
		t.Fatal("first step ended the crawl")
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times in one cycle, want 1", fired)
	}
	if fetchedAtFire != fetchedBefore+1 {
		t.Errorf("hook fired with %d pages fetched, want mid-cycle after the first fetch (%d)",
			fetchedAtFire, fetchedBefore+1)
	}
	c.Step()
	if fired != 2 {
		t.Fatalf("hook fired %d times over two cycles, want 2", fired)
	}
	c.WithStepFault(nil)
	c.Step()
	if fired != 2 {
		t.Error("cleared hook still fired")
	}
}
