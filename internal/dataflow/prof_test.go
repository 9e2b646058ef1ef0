package dataflow

import (
	"fmt"
	"testing"

	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
)

// TestExecProfilePerOperator: with a profiler attached the executor
// brackets each record an operator processes under dataflow.op.<name>, so
// every node's profiled calls equal its NodeStats.In at any DoP — the
// profiler is the executor's one per-operator wall-clock reading.
func TestExecProfilePerOperator(t *testing.T) {
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			p := prof.New(prof.Config{})
			plan := testPlan()
			_, st := runSingleSink(t, plan, input(100), ExecConfig{DoP: dop, Set: pillars.Set{Prof: p}})
			snap := p.Snapshot()
			for _, n := range plan.Nodes() {
				scope := "dataflow.op." + n.Op.Name
				sd := snap.Get(scope)
				if sd == nil {
					t.Fatalf("scope %q missing from profile", scope)
				}
				if sd.Calls != st.PerNode[n.ID()].In {
					t.Errorf("%s: %d profiled calls, want the node's %d inputs", scope, sd.Calls, st.PerNode[n.ID()].In)
				}
				if sd.WallNs <= 0 {
					t.Errorf("%s: %d wall ns over %d calls, want some", scope, sd.WallNs, sd.Calls)
				}
			}
		})
	}
}
