package dataflow

import (
	"testing"

	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
)

// TestExecProfilePerOperator: with a profiler attached the executor
// brackets each record an operator processes under dataflow.op.<name>.
func TestExecProfilePerOperator(t *testing.T) {
	p := prof.New(prof.Config{})
	_, st := runSingleSink(t, testPlan(), input(100), ExecConfig{DoP: 4, Set: pillars.Set{Prof: p}})
	snap := p.Snapshot()
	for i, want := range []struct {
		scope string
		node  int
	}{
		{"dataflow.op.src", 0},
		{"dataflow.op.even", 1},
		{"dataflow.op.mark", 2},
		{"dataflow.op.crashy", 3},
	} {
		sd := snap.Get(want.scope)
		if sd == nil {
			t.Fatalf("scope %q missing from profile (case %d)", want.scope, i)
		}
		if sd.Calls != st.PerNode[want.node].In {
			t.Errorf("%s: %d profiled calls, want the node's %d inputs", want.scope, sd.Calls, st.PerNode[want.node].In)
		}
		if sd.WallNs <= 0 {
			t.Errorf("%s: %d wall ns over %d calls, want some", want.scope, sd.WallNs, sd.Calls)
		}
	}
}
