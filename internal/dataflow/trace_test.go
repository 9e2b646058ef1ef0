package dataflow

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
)

// tracedInput gives every record a string id so traces key on it.
func tracedInput(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{"id": fmt.Sprintf("doc-%04d", i), "x": i}
	}
	return recs
}

// tracesWhere returns a snapshot of the traces in s that keep accepts.
func tracesWhere(s *trace.Snapshot, keep func(*trace.Trace) bool) *trace.Snapshot {
	out := &trace.Snapshot{}
	for _, tr := range s.Traces {
		if keep(tr) {
			out.Traces = append(out.Traces, tr)
		}
	}
	return out
}

// faultyPlan: src -> shaky (errors on ids divisible by div) -> mark.
func faultyPlan(div int) *Plan {
	p := &Plan{}
	src := p.Add(passOp("src"))
	shaky := p.Add(&Op{Name: "shaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int)%div == 0 {
				return errors.New("degenerate document")
			}
			emit(r)
			return nil
		}}, src)
	p.Add(setOp("mark", "done", true), shaky)
	return p
}

// TestQuarantinedRecordPinnedLineage is the acceptance criterion: a
// quarantined record yields a pinned trace whose span tree names every
// operator hop it took before quarantine, and the dead-letter entry links
// back to the trace by ID.
func TestQuarantinedRecordPinnedLineage(t *testing.T) {
	rec := trace.NewRecorder(trace.DefaultConfig(5))
	_, stats, err := Execute(faultyPlan(10), tracedInput(60),
		ExecConfig{DoP: 4, Policy: Quarantine, TraceKey: "id", Set: pillars.Set{Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Quarantined) == 0 {
		t.Fatal("no records quarantined")
	}
	s := rec.Snapshot()
	for _, qr := range stats.Quarantined {
		if qr.Trace == "" {
			t.Fatalf("quarantined record %v has no trace ID", qr.Rec)
		}
		found := tracesWhere(s, func(tr *trace.Trace) bool { return tr.ID.String() == qr.Trace }).Traces
		if len(found) != 1 {
			t.Fatalf("quarantined trace %s not retained", qr.Trace)
		}
		tr := found[0]
		if !tr.Pinned || !tr.HasErrClass("quarantine") {
			t.Fatalf("quarantined trace %s not pinned: %+v", qr.Trace, tr)
		}
		// The lineage names every hop: root -> src -> shaky, with the
		// quarantine event on the failing hop.
		text := tracesWhere(s, func(t *trace.Trace) bool { return t.Key == tr.Key }).Text()
		for _, hop := range []string{
			"span dataflow.record",
			"span dataflow.op.src",
			"span dataflow.op.shaky",
			"error class=quarantine op=shaky",
		} {
			if !strings.Contains(text, hop) {
				t.Fatalf("lineage of %s missing %q:\n%s", tr.Key, hop, text)
			}
		}
		// A quarantined record never reached the downstream op.
		if strings.Contains(text, "dataflow.op.mark") {
			t.Fatalf("quarantined record shows post-quarantine hop:\n%s", text)
		}
	}
}

// TestPanicPinsTrace: a panicking UDF is recovered and the record's
// lineage is pinned with the panic error class.
func TestPanicPinsTrace(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "boom", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int) == 3 {
				panic("degenerate page")
			}
			emit(r)
			return nil
		}}, src)
	rec := trace.NewRecorder(trace.DefaultConfig(2))
	_, stats, err := Execute(p, tracedInput(10),
		ExecConfig{DoP: 2, Policy: Quarantine, TraceKey: "id", Set: pillars.Set{Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerNode[1].Panics != 1 {
		t.Fatalf("want 1 panic, got %d", stats.PerNode[1].Panics)
	}
	pinned := tracesWhere(rec.Snapshot(), func(tr *trace.Trace) bool { return tr.HasErrClass("panic") })
	if len(pinned.Traces) != 1 || !pinned.Traces[0].Pinned {
		t.Fatalf("panic did not pin exactly one trace: %d", len(pinned.Traces))
	}
	if pinned.Traces[0].Key != "doc-0003" {
		t.Fatalf("wrong record pinned: %s", pinned.Traces[0].Key)
	}
}

// TestRetrySucceedsTraceShowsAttempts: a record that succeeds on retry
// carries op.retry events but no error class.
func TestRetrySucceedsTraceShowsAttempts(t *testing.T) {
	fails := map[int]int{}
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			x := r["x"].(int)
			if x == 5 && fails[x] < 2 {
				fails[x]++
				return errors.New("transient")
			}
			emit(r)
			return nil
		}}, src)
	rec := trace.NewRecorder(trace.DefaultConfig(3))
	_, stats, err := Execute(p, tracedInput(8),
		ExecConfig{DoP: 1, OpRetries: 2, TraceKey: "id", Set: pillars.Set{Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerNode[1].Retries != 2 {
		t.Fatalf("want 2 retries, got %d", stats.PerNode[1].Retries)
	}
	doc5 := tracesWhere(rec.Snapshot(), func(tr *trace.Trace) bool { return tr.Key == "doc-0005" })
	text := doc5.Text()
	if !strings.Contains(text, "op.retry") {
		t.Fatalf("retried record's trace lacks op.retry:\n%s", text)
	}
	if tr := doc5.Traces[0]; len(tr.ErrClasses) != 0 {
		t.Fatalf("recovered record should have no error class: %v", tr.ErrClasses)
	}
}

// TestFanOutLineage: one record emitted to two downstream readers shows
// both hops under the same trace.
func TestFanOutLineage(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(setOp("left", "l", 1), src)
	p.Add(setOp("right", "r", 1), src)
	rec := trace.NewRecorder(trace.DefaultConfig(4))
	_, _, err := Execute(p, tracedInput(5), ExecConfig{DoP: 2, TraceKey: "id", Set: pillars.Set{Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	text := tracesWhere(rec.Snapshot(), func(tr *trace.Trace) bool { return tr.Key == "doc-0000" }).Text()
	for _, hop := range []string{"dataflow.op.src", "dataflow.op.left", "dataflow.op.right"} {
		if !strings.Contains(text, hop) {
			t.Fatalf("fan-out lineage missing %q:\n%s", hop, text)
		}
	}
}
