package dataflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/trace"
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
	out, st := runSingleSink(t, p, input(100), ExecConfig{DoP: 4})
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
	cfg := ExecConfig{DoP: 4}
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
	cfg := ExecConfig{DoP: 4}
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
	cfg := ExecConfig{DoP: 4}
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
	const fed = quarantineLimit + 40
	out, st := runSingleSink(t, p, input(fed), ExecConfig{DoP: 4})
	if len(out) != 0 {
		t.Fatalf("got %d records", len(out))
	}
	if len(st.Quarantined) != quarantineLimit {
		t.Fatalf("retained %d dead letters, want %d", len(st.Quarantined), quarantineLimit)
	}
	if st.TotalQuarantined() != fed || st.TotalErrors() != fed {
		t.Fatalf("quarantined/errors = %d/%d, want %d/%d", st.TotalQuarantined(), st.TotalErrors(), fed, fed)
	}
}

// TestInPlaceUndoLog: an in-place operator that writes its fields and then
// fails leaves the record as it entered the node. The dead letter is the
// pristine input; a record that recovers on its retry reaches the sink
// exactly once, its fields written once; a failed attempt's fields and a
// stopped record's leak nowhere, nor into the caller's input.
func TestInPlaceUndoLog(t *testing.T) {
	in := func() []Record {
		recs := input(60)
		for _, r := range recs {
			r["y"] = 100 * r["x"].(int)
		}
		return recs
	}
	// bump adds one to y and sets z, then panics on multiples of 5, panics
	// on the first attempt at other multiples of 3, and stops x%7 == 1.
	plan := func() *Plan {
		tracker := newAttemptTracker()
		bump := func(r Record) error {
			x := r["x"].(int)
			r["y"], r["z"] = r["y"].(int)+1, "dirty"
			switch {
			case x%5 == 0:
				panic("nil dereference in tagger")
			case x%3 == 0 && tracker.next(r) == 1:
				panic("transient")
			case x%7 == 1:
				return fmt.Errorf("late filter: %w", ErrStopFlow)
			}
			return nil
		}
		p := &Plan{}
		src := p.Add(passOp("src"))
		p.Add(&Op{Name: "bump", Pkg: IE, Reads: []string{"y"}, Writes: []string{"y", "z"}, Selectivity: 1,
			Fn: Edit(bump), InPlace: bump}, src)
		return p
	}
	for _, dop := range []int{1, 4} {
		recs := in()
		out, st := runSingleSink(t, plan(), recs, ExecConfig{DoP: dop, OpRetries: 1})
		if !slices.Equal(canonical(recs), canonical(in())) {
			t.Fatalf("DoP %d: Execute wrote its input", dop)
		}
		var wantOut, wantRetries int
		for x := range 60 {
			if x%5 == 0 || x%3 == 0 {
				wantRetries++
			}
			if x%5 != 0 && x%7 != 1 {
				wantOut++
			}
		}
		seen := map[int]int{}
		for _, r := range out {
			x := r["x"].(int)
			if seen[x]++; r["y"] != 100*x+1 || r["z"] != "dirty" || len(r) != 3 {
				t.Fatalf("DoP %d: sink record %v, want y=%d written once", dop, r, 100*x+1)
			}
		}
		if len(out) != wantOut || len(seen) != wantOut {
			t.Fatalf("DoP %d: %d sink records for %d inputs, want %d, once each", dop, len(out), len(seen), wantOut)
		}
		if len(st.Quarantined) != 12 || st.TotalRetries() != int64(wantRetries) {
			t.Fatalf("DoP %d: %d dead letters, %d retries, want 12 and %d", dop, len(st.Quarantined), st.TotalRetries(), wantRetries)
		}
		for _, q := range st.Quarantined {
			if x := q.Rec["x"].(int); q.Rec["y"] != 100*x || len(q.Rec) != 2 {
				t.Fatalf("DoP %d: dead letter %v is not the pristine input", dop, q.Rec)
			}
		}
	}
	recs := in()
	if _, _, err := Execute(plan(), recs, ExecConfig{DoP: 4, Policy: FailFast}); !errors.Is(err, errPanic) {
		t.Fatalf("FailFast returned %v, want the panic", err)
	}
	if !slices.Equal(canonical(recs), canonical(in())) {
		t.Fatal("FailFast: Execute wrote its input")
	}
}

// TestEmitRuleAtEveryRetryBudget: what an operator emitted reaches
// downstream only if the attempt succeeded, whatever the retry budget — a
// failing, panicking or flow-stopping attempt sends nothing — and a 1:N
// operator's emissions arrive in emit order under the same span ids.
func TestEmitRuleAtEveryRetryBudget(t *testing.T) {
	// emitThen emits a marked copy of every record and then ends the
	// attempt with end(x) for multiples of three.
	emitThen := func(end func(x int) error) *Plan {
		p := &Plan{}
		src := p.Add(passOp("src"))
		p.Add(&Op{Name: "late", Pkg: IE, Selectivity: 1,
			Fn: func(r Record, emit Emit) error {
				out := r.Clone()
				out["emitted"] = true
				emit(out)
				if x := r["x"].(int); x%3 == 0 {
					return end(x)
				}
				return nil
			}}, src)
		return p
	}
	for _, retries := range []int{0, 2} {
		cfg := ExecConfig{DoP: 4, OpRetries: retries}
		for name, end := range map[string]func(int) error{
			"error": func(x int) error { return fmt.Errorf("bad record %d", x) },
			"panic": func(x int) error { panic(fmt.Sprint("crash on ", x)) },
		} {
			t.Run(fmt.Sprintf("%s/retries=%d", name, retries), func(t *testing.T) {
				out, st := runSingleSink(t, emitThen(end), input(30), cfg)
				if len(out) != 20 {
					t.Fatalf("%d records downstream, want the 20 whose attempt succeeded", len(out))
				}
				for _, r := range out {
					if r["x"].(int)%3 == 0 {
						t.Fatalf("emission of a failed attempt reached the sink: %v", r)
					}
				}
				if len(st.Quarantined) != 10 || st.TotalErrors() != 10 || st.TotalRetries() != int64(10*retries) {
					t.Fatalf("dead letters/errors/retries = %d/%d/%d, want 10/10/%d",
						len(st.Quarantined), st.TotalErrors(), st.TotalRetries(), 10*retries)
				}
				for _, q := range st.Quarantined {
					if _, marked := q.Rec["emitted"]; marked || q.Rec["x"].(int)%3 != 0 {
						t.Fatalf("dead letter is not the pristine input: %v", q.Rec)
					}
				}
			})
		}
		t.Run(fmt.Sprintf("stopflow/retries=%d", retries), func(t *testing.T) {
			stop := func(int) error { return fmt.Errorf("filtered late: %w", ErrStopFlow) }
			out, st := runSingleSink(t, emitThen(stop), input(30), cfg)
			if len(out) != 20 || st.TotalErrors() != 0 || st.TotalRetries() != 0 || len(st.Quarantined) != 0 {
				t.Fatalf("out=%d errors=%d retries=%d dead letters=%d, want 20/0/0/0",
					len(out), st.TotalErrors(), st.TotalRetries(), len(st.Quarantined))
			}
		})
	}

	// 1:N: three emissions per record, in order at DoP 1, and the trace
	// export (span ids are keyed by emit index) independent of both the
	// retry budget and the DoP.
	fanOut := func(cfg ExecConfig) ([]Record, string) {
		p := &Plan{}
		src := p.Add(passOp("src"))
		split := p.Add(&Op{Name: "split", Pkg: IE, Selectivity: 3,
			Fn: func(r Record, emit Emit) error {
				for part := 0; part < 3; part++ {
					emit(Record{"id": r["id"], "x": r["x"], "part": part})
				}
				return nil
			}}, src)
		p.Add(setOp("mark", "done", true), split)
		rec := trace.NewRecorder(trace.DefaultConfig(3))
		cfg.TraceKey, cfg.Trace = "id", rec
		out, _ := runSingleSink(t, p, tracedInput(40), cfg)
		blob, err := json.Marshal(rec.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out, string(blob)
	}
	out, want := fanOut(ExecConfig{DoP: 1})
	if len(out) != 120 {
		t.Fatalf("1:N operator delivered %d records, want 120", len(out))
	}
	for i, r := range out {
		if r["x"].(int) != i/3 || r["part"].(int) != i%3 {
			t.Fatalf("emission %d out of emit order: %v", i, r)
		}
	}
	for _, cfg := range []ExecConfig{{DoP: 1, OpRetries: 2}, {DoP: 8}, {DoP: 8, OpRetries: 2}} {
		if _, got := fanOut(cfg); got != want {
			t.Fatalf("trace export at DoP %d, OpRetries %d differs from DoP 1, OpRetries 0", cfg.DoP, cfg.OpRetries)
		}
	}
}

// TestProfileExcludesBlockedSends: an operator's profiler bracket closes
// before its emissions move downstream, so a cheap operator feeding a slow
// one is not charged the slow one's time: downstream operators run
// outside the upstream bracket.
func TestProfileExcludesBlockedSends(t *testing.T) {
	p := &Plan{}
	cheap := p.Add(passOp("cheap"))
	p.Add(&Op{Name: "slow", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			for end := time.Now().Add(200 * time.Microsecond); time.Now().Before(end); {
			}
			emit(r)
			return nil
		}}, cheap)
	pr := prof.New(prof.Config{})
	cfg := ExecConfig{DoP: 1}
	cfg.Prof = pr
	runSingleSink(t, p, input(256), cfg)
	snap := pr.Snapshot()
	c, s := snap.Get("dataflow.op.cheap"), snap.Get("dataflow.op.slow")
	if c == nil || s == nil || c.Calls != 256 || s.Calls != 256 {
		t.Fatalf("profile rows: cheap=%+v slow=%+v", c, s)
	}
	if c.WallNs*4 >= s.WallNs {
		t.Fatalf("cheap operator charged %d ns against the slow one's %d ns: downstream time is in its bracket", c.WallNs, s.WallNs)
	}
}

// TestDoPBoundsOperatorCalls: each of the DoP workers carries one record
// at a time through the whole plan, so across all of a chain's operators
// at most DoP UDF calls run at once, and Execute leaves no goroutine
// behind.
func TestDoPBoundsOperatorCalls(t *testing.T) {
	var live, peak atomic.Int64
	p := &Plan{}
	var n *Node
	for i := range 6 {
		op := &Op{Name: fmt.Sprintf("nap%d", i), Pkg: BASE, Selectivity: 1,
			Fn: func(r Record, emit Emit) error {
				cur := live.Add(1)
				for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				live.Add(-1)
				emit(r)
				return nil
			}}
		if n == nil {
			n = p.Add(op)
		} else {
			n = p.Add(op, n)
		}
	}
	before := runtime.NumGoroutine()
	if out, _ := runSingleSink(t, p, input(40), ExecConfig{DoP: 2}); len(out) != 40 {
		t.Fatalf("got %d records, want 40", len(out))
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("%d operator calls in flight at once at DoP 2, want at most 2", got)
	}
	// A worker's deferred Done runs just before the goroutine exits, so
	// give the last ones a moment to go.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Execute, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestWrappedStopFlowIsNotAnError: ErrStopFlow detection uses errors.Is,
// so wrapped filter verdicts don't count as failures.
func TestWrappedStopFlowIsNotAnError(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "drop", Pkg: BASE, Selectivity: 0,
		Fn: func(r Record, emit Emit) error { return fmt.Errorf("filtered out: %w", ErrStopFlow) }}, src)
	out, st := runSingleSink(t, p, input(10), ExecConfig{DoP: 4})
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
