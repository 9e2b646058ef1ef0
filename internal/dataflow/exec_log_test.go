package dataflow

import (
	"errors"
	"testing"

	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
)

// logPlan is a small flow with deterministic per-record failures: panics
// on x%20==0, terminal errors on x%10==5, one transient failure on
// x%7==0 (recovers on the retry), pass-through otherwise.
func logPlan(t *testing.T) *Plan {
	t.Helper()
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			x := r["x"].(int)
			switch {
			case x%20 == 0:
				panic("nil dereference in tagger")
			case x%10 == 5:
				return errors.New("degenerate input")
			case x%7 == 0 && r["retried"] == nil:
				r["retried"] = true
				return errors.New("transient")
			}
			emit(r)
			return nil
		}}, src)
	return p
}

func runLogged(t *testing.T, dop int) *evlog.Snapshot {
	t.Helper()
	sink := evlog.NewSink(evlog.DefaultConfig(7))
	cfg := ExecConfig{DoP: dop, OpRetries: 2, Set: pillars.Set{Log: sink}}
	if _, _, err := Execute(logPlan(t), input(120), cfg); err != nil {
		t.Fatal(err)
	}
	return sink.Snapshot()
}

// TestExecLogContent: lifecycle, quarantine, panic, retry, and summary
// records all land with the expected components and levels.
func TestExecLogContent(t *testing.T) {
	snap := runLogged(t, 4)
	// 120 inputs: 6 panics (x%20==0), 12 errors at x%10==5, 18-1 transient
	// retries at x%7==0 minus overlaps — assert the structural invariants
	// rather than the exact tallies.
	if snap.ComponentTotal(evlog.Info, "dataflow.exec") != 2 {
		t.Errorf("exec lifecycle records = %d, want 2 (start+done)",
			snap.ComponentTotal(evlog.Info, "dataflow.exec"))
	}
	if got := snap.ComponentTotal(evlog.Warn, "dataflow.op"); got == 0 {
		t.Error("no warn-level op records (quarantine/panic) emitted")
	}
	msgs := map[string]int{}
	for _, r := range snap.Records {
		msgs[r.Msg]++
	}
	for _, want := range []string{"exec.start", "exec.done", "op.summary", "op.quarantine", "op.panic"} {
		if msgs[want] == 0 {
			t.Errorf("no %q record retained", want)
		}
	}
	if msgs["op.summary"] != 2 {
		t.Errorf("op.summary records = %d, want one per node (2)", msgs["op.summary"])
	}
}
