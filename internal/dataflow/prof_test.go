package dataflow

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webtextie/internal/obs/prof"
)

// runProf executes the shared test plan with a per-operator profiler
// attached and returns the profiler plus the canonical sink output.
func runProf(t *testing.T, dop int) (*prof.Profiler, []string, *ExecStats) {
	t.Helper()
	cfg := ExecConfig{DoP: dop}
	p := cfg.Prof
	if p == nil {
		p = prof.New(prof.Config{})
		cfg.Prof = p
	}
	res, st, err := Execute(testPlan(), input(100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sink []Record
	for _, recs := range res {
		sink = append(sink, recs...)
	}
	return p, canonical(sink), st
}

// TestExecProfilePerOperator: with a profiler attached the executor
// brackets each record an operator processes under dataflow.op.<name>.
func TestExecProfilePerOperator(t *testing.T) {
	p, _, st := runProf(t, 4)
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

// callRows renders the deterministic half of a profile: one "scope
// calls" row per scope.
func callRows(s *prof.Snapshot) string {
	var b strings.Builder
	for _, sd := range s.Scopes {
		fmt.Fprintf(&b, "%s %d\n", sd.Name, sd.Calls)
	}
	return b.String()
}

// TestExecProfileDeterministicAcrossDoP: operator call attribution rides
// the same DoP-equivalence contract as the node metrics, so the call
// rows are identical at any parallelism.
func TestExecProfileDeterministicAcrossDoP(t *testing.T) {
	base, baseSink, _ := runProf(t, 1)
	for _, dop := range []int{4, 16} {
		p, sink, _ := runProf(t, dop)
		if !reflect.DeepEqual(sink, baseSink) {
			t.Fatalf("DoP %d sink diverges", dop)
		}
		if got, want := callRows(p.Snapshot()), callRows(base.Snapshot()); got != want {
			t.Errorf("DoP %d operator call rows diverge from DoP 1:\n%s\nvs\n%s", dop, got, want)
		}
	}
}

// TestExecProfilingInvisible: attaching a profiler must not change the
// execution results or stats.
func TestExecProfilingInvisible(t *testing.T) {
	cfg := ExecConfig{DoP: 4}
	res, st, err := Execute(testPlan(), input(100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var plain []Record
	for _, recs := range res {
		plain = append(plain, recs...)
	}
	_, sink, pst := runProf(t, cfg.DoP)
	if !reflect.DeepEqual(canonical(plain), sink) {
		t.Error("sink records change when operator profiling is on")
	}
	if !reflect.DeepEqual(st.PerNode, pst.PerNode) {
		t.Errorf("per-node stats change when operator profiling is on:\n%+v\n%+v", st.PerNode, pst.PerNode)
	}
}
