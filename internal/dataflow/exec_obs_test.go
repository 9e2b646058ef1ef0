package dataflow

import (
	"fmt"
	"sort"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
)

// errOp fails on records whose x is divisible by mod (deterministic UDF
// crashes, the §5 "tools crash on degenerate input" case).
func errOp(name string, mod int) *Op {
	return &Op{Name: name, Pkg: BASE, Reads: []string{"x"}, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int)%mod == 0 {
				return fmt.Errorf("synthetic crash on %v", r["x"])
			}
			emit(r)
			return nil
		}}
}

// testPlan builds a small plan exercising filtering, mutation, and UDF
// errors: src -> even-filter -> mark -> crash-on-multiples-of-10.
func testPlan() *Plan {
	p := &Plan{}
	src := p.Add(passOp("src"))
	ev := p.Add(filterOp("even", func(r Record) bool { return r["x"].(int)%2 == 0 }, 0.5), src)
	mk := p.Add(setOp("mark", "y", "ok"), ev)
	p.Add(errOp("crashy", 10), mk)
	return p
}

// canonical renders a record set order-insensitively for comparison.
func canonical(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := ""
		for _, k := range keys {
			s += fmt.Sprintf("%s=%v;", k, r[k])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// TestExecMetricsMatchStats checks that the obs registry view of an
// execution agrees with the public ExecStats.
func TestExecMetricsMatchStats(t *testing.T) {
	reg := obs.New()
	p := testPlan()
	_, st := runSingleSink(t, p, input(200), ExecConfig{DoP: 4, Set: pillars.Set{Metrics: reg}})
	snap := reg.Snapshot()

	if got := snap.Counter("dataflow.executions"); got != 1 {
		t.Errorf("dataflow.executions = %d, want 1", got)
	}
	for _, n := range p.nodes {
		ns := st.PerNode[n.id]
		if got := snap.Counter(MetricName(n, "in")); got != ns.In {
			t.Errorf("%s = %d, ExecStats.In = %d", MetricName(n, "in"), got, ns.In)
		}
		if got := snap.Counter(MetricName(n, "out")); got != ns.Out {
			t.Errorf("%s = %d, ExecStats.Out = %d", MetricName(n, "out"), got, ns.Out)
		}
		if got := snap.Counter(MetricName(n, "errors")); got != ns.Errors {
			t.Errorf("%s = %d, ExecStats.Errors = %d", MetricName(n, "errors"), got, ns.Errors)
		}
	}
}

// TestSharedRegistrySequentialExactness: two sequential executions into
// one shared registry must each report exact (non-cumulative) ExecStats,
// while the registry accumulates the totals.
func TestSharedRegistrySequentialExactness(t *testing.T) {
	reg := obs.New()
	for i := 0; i < 2; i++ {
		p := testPlan()
		_, st := runSingleSink(t, p, input(100), ExecConfig{DoP: 4, Set: pillars.Set{Metrics: reg}})
		if st.PerNode[0].In != 100 {
			t.Fatalf("run %d: source In = %d, want 100 (stats leaked across runs)", i, st.PerNode[0].In)
		}
	}
	// Node ids restart per plan, so the second run hit the same metric
	// names and the registry holds the sum.
	if got := reg.Snapshot().Counter("dataflow.op.00.src.in"); got != 200 {
		t.Errorf("shared registry source in = %d, want 200", got)
	}
	if got := reg.Snapshot().Counter("dataflow.executions"); got != 2 {
		t.Errorf("dataflow.executions = %d, want 2", got)
	}
}
