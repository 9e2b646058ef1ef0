package dataflow

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
)

// attemptTracker counts per-record attempts so a test UDF can fail a
// record's first k presentations deterministically under any DoP.
type attemptTracker struct {
	mu   sync.Mutex
	seen map[int]int
}

func newAttemptTracker() *attemptTracker { return &attemptTracker{seen: map[int]int{}} }

func (a *attemptTracker) next(rec Record) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := rec["x"].(int)
	a.seen[k]++
	return a.seen[k]
}

// TestPanicRecoveredAndQuarantined: a panicking operator loses only the
// offending records; the flow finishes and reports the panics.
func TestPanicRecoveredAndQuarantined(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	n := p.Add(&Op{Name: "bomb", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int)%10 == 0 {
				panic("nil dereference in tagger")
			}
			emit(r)
			return nil
		}}, src)
	out, st := runSingleSink(t, p, input(100), DefaultExecConfig())
	if len(out) != 90 {
		t.Fatalf("got %d records, want 90", len(out))
	}
	ns := st.PerNode[n.ID()]
	if ns.Panics != 10 || ns.Errors != 10 || ns.Quarantined != 10 {
		t.Fatalf("panics/errors/quarantined = %d/%d/%d, want 10/10/10", ns.Panics, ns.Errors, ns.Quarantined)
	}
	if len(st.Quarantined) != 10 {
		t.Fatalf("dead-letter holds %d records, want 10", len(st.Quarantined))
	}
	for _, q := range st.Quarantined {
		if q.NodeID != n.ID() || q.Op != "bomb" || q.Rec["x"].(int)%10 != 0 {
			t.Fatalf("bad quarantine entry: %+v", q)
		}
	}
}

// TestFailFastAborts: under FailFast the first terminal failure kills the
// run and surfaces the operator error.
func TestFailFastAborts(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "fatal", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int) == 50 {
				return errors.New("unrecoverable")
			}
			emit(r)
			return nil
		}}, src)
	cfg := DefaultExecConfig()
	cfg.Policy = FailFast
	res, _, err := Execute(p, input(100), cfg)
	if err == nil {
		t.Fatal("FailFast run returned nil error")
	}
	if res != nil {
		t.Fatal("FailFast returned partial results")
	}
}

// TestOpRetriesRecoverTransientFailures: with a retry budget, records
// whose first attempts fail still flow — and emissions from failed
// attempts are discarded, so retried records emit exactly once.
func TestOpRetriesRecoverTransientFailures(t *testing.T) {
	tr := newAttemptTracker()
	p := &Plan{}
	src := p.Add(passOp("src"))
	n := p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			emit(r.Clone()) // emitted even on failing attempts
			if r["x"].(int)%5 == 0 && tr.next(r) <= 2 {
				return errors.New("transient")
			}
			return nil
		}}, src)
	cfg := DefaultExecConfig()
	cfg.OpRetries = 3
	out, st := runSingleSink(t, p, input(50), cfg)
	if len(out) != 50 {
		t.Fatalf("got %d records, want 50 (exactly one emission per record)", len(out))
	}
	ns := st.PerNode[n.ID()]
	if ns.Retries != 20 { // 10 flaky records x 2 failing attempts
		t.Fatalf("retries = %d, want 20", ns.Retries)
	}
	if ns.Errors != 0 || len(st.Quarantined) != 0 {
		t.Fatalf("errors=%d quarantined=%d after successful retries", ns.Errors, len(st.Quarantined))
	}
	if st.TotalRetries() != 20 {
		t.Fatalf("TotalRetries = %d", st.TotalRetries())
	}
}

// TestOpRetriesExhaustedQuarantines: records that fail every attempt in
// the budget end up dead-lettered with the retry count on the books.
func TestOpRetriesExhaustedQuarantines(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	n := p.Add(&Op{Name: "poison", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int) == 7 {
				return errors.New("always fails")
			}
			emit(r)
			return nil
		}}, src)
	cfg := DefaultExecConfig()
	cfg.OpRetries = 2
	out, st := runSingleSink(t, p, input(20), cfg)
	if len(out) != 19 {
		t.Fatalf("got %d records, want 19", len(out))
	}
	ns := st.PerNode[n.ID()]
	if ns.Errors != 1 || ns.Quarantined != 1 || ns.Retries != 2 {
		t.Fatalf("errors/quarantined/retries = %d/%d/%d, want 1/1/2", ns.Errors, ns.Quarantined, ns.Retries)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0].Rec["x"].(int) != 7 {
		t.Fatalf("dead letter = %+v", st.Quarantined)
	}
}

// TestQuarantineLimitCapsRetention: the dead-letter buffer is bounded;
// counts are not.
func TestQuarantineLimitCapsRetention(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "sieve", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error { return errors.New("bad") }}, src)
	cfg := DefaultExecConfig()
	cfg.QuarantineLimit = 5
	out, st := runSingleSink(t, p, input(40), cfg)
	if len(out) != 0 {
		t.Fatalf("got %d records", len(out))
	}
	if len(st.Quarantined) != 5 {
		t.Fatalf("retained %d dead letters, want 5", len(st.Quarantined))
	}
	if st.TotalQuarantined() != 40 || st.TotalErrors() != 40 {
		t.Fatalf("quarantined/errors = %d/%d, want 40/40", st.TotalQuarantined(), st.TotalErrors())
	}
}

// TestWrappedStopFlowIsNotAnError: ErrStopFlow detection uses errors.Is,
// so wrapped filter verdicts don't count as failures.
func TestWrappedStopFlowIsNotAnError(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "drop", Pkg: BASE, Selectivity: 0,
		Fn: func(r Record, emit Emit) error { return fmt.Errorf("filtered out: %w", ErrStopFlow) }}, src)
	out, st := runSingleSink(t, p, input(10), DefaultExecConfig())
	if len(out) != 0 || st.TotalErrors() != 0 {
		t.Fatalf("out=%d errors=%d", len(out), st.TotalErrors())
	}
}

// TestErrorsLandInStatsAndObs: the regression gate for error accounting —
// failures inside high-DoP operator goroutines must show up, with equal
// counts, in ExecStats and the obs registry.
func TestErrorsLandInStatsAndObs(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	n := p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int)%4 == 0 {
				return errors.New("degenerate input")
			}
			emit(r)
			return nil
		}}, src)
	reg := obs.New()
	cfg := ExecConfig{DoP: 8, Set: pillars.Set{Metrics: reg}}
	_, st := runSingleSink(t, p, input(200), cfg)

	const want = 50 // 200/4
	if st.TotalErrors() != want {
		t.Fatalf("ExecStats.TotalErrors = %d, want %d", st.TotalErrors(), want)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricName(n, "errors")); got != want {
		t.Fatalf("obs %s = %d, want %d", MetricName(n, "errors"), got, want)
	}
	if got := snap.Counter(MetricName(n, "quarantined")); got != want {
		t.Fatalf("obs %s = %d, want %d", MetricName(n, "quarantined"), got, want)
	}
	if st.TotalQuarantined() != want || int64(len(st.Quarantined)) != want {
		t.Fatalf("quarantine counts %d/%d, want %d", st.TotalQuarantined(), len(st.Quarantined), want)
	}
}

// TestQuarantineDeterministicAcrossRuns: the dead-letter report is sorted,
// so two identical high-DoP runs render it identically.
func TestQuarantineDeterministicAcrossRuns(t *testing.T) {
	run := func() []QuarantinedRecord {
		p := &Plan{}
		src := p.Add(passOp("src"))
		p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
			Fn: func(r Record, emit Emit) error {
				if r["x"].(int)%7 == 0 {
					return fmt.Errorf("bad record %d", r["x"].(int)%3)
				}
				emit(r)
				return nil
			}}, src)
		_, st := runSingleSink(t, p, input(300), ExecConfig{DoP: 16})
		return st.Quarantined
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("quarantine order differs across identical runs")
	}
}
