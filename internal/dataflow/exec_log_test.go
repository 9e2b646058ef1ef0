package dataflow

import (
	"errors"
	"maps"
	"strconv"
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

// TestExecLogContent: the log holds what happens to the run and to each
// operator — exec.start, exec.done and one op.summary per node — and
// nothing about a single record: every retry, panic and quarantine is its
// record's trace's alone. The summaries' quarantined attrs add up to the
// run's quarantines.
func TestExecLogContent(t *testing.T) {
	sink := evlog.NewSink(evlog.DefaultConfig(7))
	cfg := ExecConfig{DoP: 4, OpRetries: 2, Set: pillars.Set{Log: sink}}
	_, stats, err := Execute(logPlan(t), input(120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalQuarantined() == 0 || stats.TotalRetries() == 0 {
		t.Fatalf("the plan quarantined %d and retried %d records, want some of each",
			stats.TotalQuarantined(), stats.TotalRetries())
	}
	snap := sink.Snapshot()
	msgs := map[string]int{}
	var quarantined int64
	for _, r := range snap.Records {
		msgs[r.Msg]++
		if r.Msg != "op.summary" {
			continue
		}
		for _, a := range r.Attrs {
			if a.Key == "quarantined" {
				n, err := strconv.ParseInt(a.Value, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				quarantined += n
			}
		}
	}
	want := map[string]int{"exec.start": 1, "exec.done": 1, "op.summary": 2}
	var emitted uint64
	for _, n := range snap.Totals {
		emitted += n
	}
	if !maps.Equal(msgs, want) || emitted != 4 {
		t.Errorf("log records %v (%d emitted), want %v", msgs, emitted, want)
	}
	if quarantined != stats.TotalQuarantined() {
		t.Errorf("op.summary quarantined attrs add up to %d, want the run's %d",
			quarantined, stats.TotalQuarantined())
	}
}
