package dataflow

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/trace"
)

// The executor's determinism identities, each asserted once over every
// byte an execution publishes: DoP 1 vs 4 vs 16, a rerun, and the
// pillars' invisibility. The fixture runs a plan through every path an
// export can see — filtering, mutation, transient failures recovered by
// a retry, terminal failures and panics quarantined — with metrics,
// trace, log and profile on (an execution has no series).

// identityPlan is src -> even -> mark -> shaky over tracedInput(200).
// shaky panics on x%20==0, fails terminally on x%10==4, and fails once
// on x%6==0, recovering on its retry: 70 of the 200 records reach the
// sink.
func identityPlan() *Plan {
	p := &Plan{}
	src := p.Add(passOp("src"))
	ev := p.Add(filterOp("even", func(r Record) bool { return r["x"].(int)%2 == 0 }, 0.5), src)
	mk := p.Add(setOp("mark", "y", "ok"), ev)
	p.Add(&Op{Name: "shaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			x := r["x"].(int)
			switch {
			case x%20 == 0:
				panic("nil dereference in tagger")
			case x%10 == 4:
				return errors.New("degenerate input")
			case x%6 == 0 && r["retried"] == nil:
				r["retried"] = true
				return errors.New("transient")
			}
			emit(r)
			return nil
		}}, mk)
	return p
}

// exports maps each byte surface of an execution to its rendering. A
// surface a run did not produce, because its pillar was off, is absent
// and compares as empty.
type exports map[string]string

// surfaces is the order diffExports walks.
var surfaces = []string{"sink", "stats", "dead-letters", "metrics",
	"trace", "trace-json", "trace-dead-letters", "log", "log-json", "profile"}

// exportsOf renders an execution whole: its sink records
// (order-insensitively), per-node stats, dead letters, and every pillar's
// export plus its whole snapshot as JSON (any byte another rendering could
// show is a function of it). Metrics render as counters only and profiles
// as call rows only: histogram buckets and wall time are measurements.
func exportsOf(t *testing.T, sink []Record, st *ExecStats, snap pillars.Snapshot) exports {
	t.Helper()
	ex := exports{"sink": strings.Join(canonical(sink), "\n")}
	var stats, dead, deadTraces, counters, calls strings.Builder
	for _, id := range slices.Sorted(maps.Keys(st.PerNode)) {
		ns := st.PerNode[id]
		fmt.Fprintf(&stats, "%d in=%d out=%d errors=%d retries=%d panics=%d quarantined=%d\n",
			id, ns.In, ns.Out, ns.Errors, ns.Retries, ns.Panics, ns.Quarantined)
	}
	for _, q := range st.Quarantined {
		fmt.Fprintf(&dead, "%d %s %s %v\n", q.NodeID, q.Op, q.Err, canonical([]Record{q.Rec}))
		if q.Trace != "" {
			fmt.Fprintf(&deadTraces, "%s\n", q.Trace)
		}
	}
	ex["stats"], ex["dead-letters"], ex["trace-dead-letters"] = stats.String(), dead.String(), deadTraces.String()
	for _, name := range slices.Sorted(maps.Keys(snap.Metrics.Counters)) {
		fmt.Fprintf(&counters, "%s %d\n", name, snap.Metrics.Counters[name])
	}
	ex["metrics"] = counters.String()
	str := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if s := snap.Traces; s != nil {
		ex["trace"], ex["trace-json"] = s.Text(), str(json.Marshal(s))
	}
	if s := snap.Logs; s != nil {
		ex["log"], ex["log-json"] = s.Logfmt(), str(json.Marshal(s))
	}
	if snap.Profile != nil {
		for _, sd := range snap.Profile.Scopes {
			fmt.Fprintf(&calls, "%s %d\n", sd.Name, sd.Calls)
		}
		ex["profile"] = calls.String()
	}
	return ex
}

// without is what a run with some pillars off must export: ex less every
// surface whose name starts with one of prefixes.
func (ex exports) without(prefixes ...string) exports {
	out := exports{}
	for name, text := range ex {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			out[name] = text
		}
	}
	return out
}

// diffExports names the first surface on which got differs from want,
// and the first byte at which it does.
func diffExports(t *testing.T, label string, want, got exports) {
	t.Helper()
	for _, name := range surfaces {
		w, g := want[name], got[name]
		if w == g {
			continue
		}
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		clip := func(s string) string { return s[max(i-80, 0):min(i+80, len(s))] }
		t.Errorf("%s: %s differs at byte %d\nwant ...%q...\ngot  ...%q...", label, name, i, clip(w), clip(g))
		return
	}
}

// pillarSet is what a fixture run attaches.
type pillarSet int

const (
	allPillars pillarSet = iota // metrics, trace, log and profile
	noPillars
	traceAndLog
)

// fixture is one memoized execution: its pillars, DoP and rerun index,
// and whether it executes reusedPlan instead of a fresh plan.
type fixture struct {
	pillars pillarSet
	dop     int
	rerun   int
	reused  bool
}

// reusedPlan is the one Plan value every reused fixture executes.
var reusedPlan = identityPlan()

var reference = fixture{dop: 1}

// fixtureRuns memoizes each fixture's run across the tests of one pass,
// so a run two tests need happens once. Under -count=N a run is dropped
// when the test that made it ends, so every pass runs afresh.
var fixtureRuns = map[fixture]exports{}

func (f fixture) run(t *testing.T) exports {
	t.Helper()
	if ex, ok := fixtureRuns[f]; ok {
		return ex
	}
	var set pillars.Set
	if f.pillars != noPillars {
		set.Trace = trace.NewRecorder(trace.DefaultConfig(11))
		set.Log = evlog.NewSink(evlog.DefaultConfig(7))
	}
	if f.pillars == allPillars {
		set.Metrics, set.Prof = obs.New(), prof.New(prof.Config{})
	}
	p := identityPlan()
	if f.reused {
		p = reusedPlan
	}
	sink, st := runSingleSink(t, p, tracedInput(200), ExecConfig{DoP: f.dop, OpRetries: 1, TraceKey: "id", Set: set})
	ex := exportsOf(t, sink, st, set.Snapshot())
	if f == reference {
		for _, name := range surfaces {
			if ex[name] == "" {
				t.Errorf("reference run exported no %s", name)
			}
		}
		if len(sink) != 70 || st.TotalRetries() == 0 {
			t.Errorf("reference sink holds %d records after %d retries, want 70 after some", len(sink), st.TotalRetries())
		}
		for _, q := range st.Quarantined {
			if q.Trace == "" {
				t.Errorf("dead letter %v carries no trace ID", q.Rec)
			}
		}
	}
	fixtureRuns[f] = ex
	if flag.Lookup("test.count").Value.String() != "1" {
		t.Cleanup(func() { delete(fixtureRuns, f) })
	}
	return ex
}

// TestExecIdentity is every determinism identity of the executor.
func TestExecIdentity(t *testing.T) {
	t.Run("dop", dopIdentity)
	t.Run("rerun", rerunIdentity)
	t.Run("invisible", invisibility)
	t.Run("same-plan", samePlanIdentity)
}

// dopIdentity: the degree of parallelism changes only scheduling. Every
// export rides the plan-position logical clock and order-independent
// retention, so DoP 1, 4 and 16 publish the same bytes.
func dopIdentity(t *testing.T) {
	for _, dop := range []int{4, 16} {
		diffExports(t, fmt.Sprintf("DoP %d", dop), reference.run(t), fixture{dop: dop}.run(t))
	}
}

// rerunIdentity: a second DoP-16 execution publishes the first's bytes —
// the gate for iteration-order or wall-clock leaks into any export.
func rerunIdentity(t *testing.T) {
	diffExports(t, "rerun", fixture{dop: 16}.run(t), fixture{dop: 16, rerun: 1}.run(t))
}

// invisibility: attaching pillars changes no other export. With every
// pillar off, sink, stats and dead letters stand (their trace IDs are
// the trace pillar's); with trace and log only, their exports stand too.
func invisibility(t *testing.T) {
	ref := reference.run(t)
	diffExports(t, "pillars off", ref.without("metrics", "trace", "log", "profile"),
		fixture{pillars: noPillars, dop: 1}.run(t))
	diffExports(t, "trace+log only", ref.without("metrics", "profile"),
		fixture{pillars: traceAndLog, dop: 1}.run(t))
}

// samePlanIdentity: one Plan value executed twice publishes, both times,
// the bytes of a fresh plan — an execution leaves nothing behind in the
// plan that a later one would see.
func samePlanIdentity(t *testing.T) {
	ref := reference.run(t)
	for rerun := range 2 {
		diffExports(t, fmt.Sprintf("same plan, run %d", rerun+1), ref, fixture{dop: 4, rerun: rerun, reused: true}.run(t))
	}
}

// traceGolden is the sha256 of the reference execution's trace exports.
// The digests were recorded before the recorder's block-copy rewrite, so
// they show that no trace byte moved with it; the identities above
// compare runs of one build only and cannot.
var traceGolden = map[string]string{
	"trace":      "825b3126244492f12a52c37e6e8952a22491d34205b42438cb4325e0200bce59",
	"trace-json": "97d254464270708dc6b690353e6ea8b84cbf0ed1ea912a1b6678883fb101b1a1",
}

// TestExecTraceGolden pins the reference execution's trace exports to
// traceGolden.
func TestExecTraceGolden(t *testing.T) {
	ex := reference.run(t)
	for _, name := range []string{"trace", "trace-json"} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(ex[name]))); got != traceGolden[name] {
			t.Errorf("sha256(%s) = %s, want %s", name, got, traceGolden[name])
		}
	}
}

// The per-pillar identity tests TestExecIdentity replaced keep their
// names, each running the axis that now covers it, so a -run pattern or
// a document naming one still selects its assertion.

func TestTwoRunIdentity(t *testing.T)                    { rerunIdentity(t) }
func TestDoPEquivalence(t *testing.T)                    { dopIdentity(t) }
func TestExecLogByteIdenticalAcrossDoP(t *testing.T)     { dopIdentity(t) }
func TestExecuteTraceDeterministicUnderDoP(t *testing.T) { dopIdentity(t); rerunIdentity(t) }
func TestExecProfileDeterministicAcrossDoP(t *testing.T) { dopIdentity(t) }
func TestExecProfilingInvisible(t *testing.T)            { invisibility(t) }
func TestTraceOffExecuteIdentical(t *testing.T)          { invisibility(t) }
func TestQuarantineDeterministicAcrossRuns(t *testing.T) { rerunIdentity(t) }
