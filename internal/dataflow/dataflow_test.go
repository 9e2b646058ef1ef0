package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// helpers to build toy operators.

func passOp(name string) *Op {
	return &Op{Name: name, Pkg: BASE, Reads: []string{"x"}, Writes: nil,
		Selectivity: 1, Fn: Keep(func(Record) bool { return true })}
}

func filterOp(name string, keep func(Record) bool, sel float64) *Op {
	return &Op{Name: name, Pkg: BASE, Filter: true, Selectivity: sel,
		Reads: []string{"x"}, Fn: Keep(keep)}
}

func setOp(name, field string, v any) *Op {
	return &Op{Name: name, Pkg: BASE, Reads: []string{}, Writes: []string{field},
		Selectivity: 1, Cost: Cost{PerKBms: 5},
		Fn: Edit(func(r Record) error { r[field] = v; return nil })}
}

// inPlaceOp is setOp with both forms of one closure: Fn clones, InPlace
// edits the record the executor owns.
func inPlaceOp(name, field string, v any) *Op {
	set := func(r Record) error { r[field] = v; return nil }
	op := setOp(name, field, v)
	op.Fn, op.InPlace = Edit(set), set
	return op
}

func input(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{"x": i}
	}
	return recs
}

func runSingleSink(t *testing.T, p *Plan, in []Record, cfg ExecConfig) ([]Record, *ExecStats) {
	t.Helper()
	res, st, err := Execute(p, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sinks := p.Sinks()
	if len(sinks) != 1 {
		t.Fatalf("expected 1 sink, got %d", len(sinks))
	}
	return res[sinks[0].ID()], st
}

func TestLinearPipeline(t *testing.T) {
	p := &Plan{}
	a := p.Add(passOp("a"))
	b := p.Add(filterOp("even", func(r Record) bool { return r["x"].(int)%2 == 0 }, 0.5), a)
	p.Add(setOp("mark", "y", "ok"), b)
	out, st := runSingleSink(t, p, input(100), ExecConfig{DoP: 4})
	if len(out) != 50 {
		t.Fatalf("got %d records, want 50", len(out))
	}
	for _, r := range out {
		if r["y"] != "ok" {
			t.Fatalf("record not marked: %v", r)
		}
	}
	if st.PerNode[0].In != 100 || st.PerNode[1].Out != 50 {
		t.Errorf("stats: %+v %+v", st.PerNode[0], st.PerNode[1])
	}
}

func TestFanOutBranches(t *testing.T) {
	// One source, two independent branches (the linguistic vs entity split
	// of §4.2).
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(setOp("left", "l", 1), src)
	p.Add(setOp("right", "r", 1), src)
	res, _, err := Execute(p, input(20), ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("sink count = %d", len(res))
	}
	for id, recs := range res {
		if len(recs) != 20 {
			t.Errorf("sink %d got %d records", id, len(recs))
		}
	}
}

func TestFanOutIsolation(t *testing.T) {
	// Mutating one branch must not leak into the other (records are cloned
	// at fan-out).
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(setOp("setA", "shared", "A"), src)
	p.Add(setOp("setB", "shared", "B"), src)
	res, _, err := Execute(p, input(50), ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range res {
		first := recs[0]["shared"]
		for _, r := range recs {
			if r["shared"] != first {
				t.Fatal("branch records mixed")
			}
		}
	}
}

func TestFanIn(t *testing.T) {
	p := &Plan{}
	a := p.Add(passOp("a"))
	b := p.Add(passOp("b"))
	union := p.Add(passOp("union"), a, b)
	_ = union
	res, _, err := Execute(p, input(10), ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both sources feed the union: 20 records at the sink.
	if got := len(res[union.ID()]); got != 20 {
		t.Fatalf("union got %d records", got)
	}
}

func TestUDFErrorsCountedNotFatal(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "flaky", Pkg: IE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			if r["x"].(int)%10 == 0 {
				return errors.New("tagger crashed on degenerate input")
			}
			emit(r)
			return nil
		}}, src)
	out, st := runSingleSink(t, p, input(100), ExecConfig{DoP: 4})
	if len(out) != 90 {
		t.Fatalf("got %d records, want 90", len(out))
	}
	if st.TotalErrors() != 10 {
		t.Fatalf("errors = %d, want 10", st.TotalErrors())
	}
}

func TestErrStopFlowNotAnError(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "drop", Pkg: BASE, Selectivity: 0,
		Fn: func(r Record, emit Emit) error { return ErrStopFlow }}, src)
	out, st := runSingleSink(t, p, input(10), ExecConfig{DoP: 4})
	if len(out) != 0 || st.TotalErrors() != 0 {
		t.Fatalf("out=%d errors=%d", len(out), st.TotalErrors())
	}
}

func TestInitRunsOnce(t *testing.T) {
	var inits int32
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "dict", Pkg: IE, Selectivity: 1,
		Init: func() error { atomic.AddInt32(&inits, 1); return nil },
		Fn:   func(r Record, emit Emit) error { emit(r); return nil }}, src)
	_, _ = runSingleSink(t, p, input(10), ExecConfig{DoP: 8})
	if inits != 1 {
		t.Fatalf("init ran %d times", inits)
	}
}

func TestInitErrorAborts(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "bad", Pkg: IE,
		Init: func() error { return errors.New("out of memory") },
		Fn:   func(r Record, emit Emit) error { return nil }}, src)
	if _, _, err := Execute(p, input(1), ExecConfig{DoP: 4}); err == nil {
		t.Fatal("init error not propagated")
	}
}

func TestValidateCycle(t *testing.T) {
	p := &Plan{}
	a := p.Add(passOp("a"))
	b := p.Add(passOp("b"), a)
	a.Inputs = append(a.Inputs, b) // manufacture a cycle
	if err := p.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateForeignNode(t *testing.T) {
	p1 := &Plan{}
	foreign := p1.Add(passOp("foreign"))
	p2 := &Plan{}
	p2.Add(passOp("x"), foreign)
	if err := p2.Validate(); err == nil {
		t.Fatal("foreign input not detected")
	}
}

// TestValidateInPlaceNeedsExplicitWrites: the undo log saves the fields
// an in-place operator declares, so it must declare them all.
func TestValidateInPlaceNeedsExplicitWrites(t *testing.T) {
	for _, writes := range [][]string{nil, {"*"}, {"y", "*"}} {
		op := inPlaceOp("set", "y", 1)
		op.Writes = writes
		p := &Plan{}
		p.Add(op)
		if err := p.Validate(); err == nil {
			t.Errorf("in-place op with Writes %q validated", writes)
		}
	}
	p := &Plan{}
	p.Add(inPlaceOp("set", "y", 1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDoPParallelism(t *testing.T) {
	// All DoP workers must actually process records.
	var mu atomic.Int64
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(&Op{Name: "count", Pkg: BASE, Selectivity: 1,
		Fn: func(r Record, emit Emit) error {
			mu.Add(1)
			emit(r)
			return nil
		}}, src)
	out, _ := runSingleSink(t, p, input(1000), ExecConfig{DoP: 8})
	if len(out) != 1000 || mu.Load() != 1000 {
		t.Fatalf("processed %d, emitted %d", mu.Load(), len(out))
	}
}

// TestLongerChainAddsNoAllocsPerRecord: a worker builds its emitter for
// each node once, so a hop through a Keep operator allocates nothing per
// record; nor does a hop through an in-place annotator, which edits the
// record the executor cloned once at the source. Either chain four times
// as long costs the same per record.
func TestLongerChainAddsNoAllocsPerRecord(t *testing.T) {
	for name, op := range map[string]func() *Op{
		"keep":     func() *Op { return passOp("keep") },
		"in-place": func() *Op { return inPlaceOp("mark", "y", true) },
	} {
		t.Run(name, func(t *testing.T) { chainAllocs(t, op) })
	}
}

// chainAllocs fails if a chain of 12 op()s allocates more per record than
// a chain of 3.
func chainAllocs(t *testing.T, op func() *Op) {
	perRecord := func(length int) float64 {
		p := &Plan{}
		n := p.Add(op())
		for i := 1; i < length; i++ {
			n = p.Add(op(), n)
		}
		allocs := func(records int) float64 {
			in := input(records)
			return testing.AllocsPerRun(5, func() {
				if _, _, err := Execute(p, in, ExecConfig{DoP: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(1000) - allocs(200)) / 800
	}
	short, long := perRecord(3), perRecord(12)
	t.Logf("allocations per record: %.3f at 3 operators, %.3f at 12", short, long)
	if long-short > 0.5 {
		t.Errorf("9 more operators cost %.2f more allocations per record (%.3f at 3, %.3f at 12), want none",
			long-short, short, long)
	}
}

func TestEmptyInput(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	p.Add(passOp("next"), src)
	out, _ := runSingleSink(t, p, nil, ExecConfig{DoP: 4})
	if len(out) != 0 {
		t.Fatalf("empty input produced %d records", len(out))
	}
}

func TestCommute(t *testing.T) {
	a := &Op{Name: "a", Reads: []string{"text"}, Writes: []string{"tokens"}}
	b := &Op{Name: "b", Reads: []string{"text"}, Writes: []string{"lang"}}
	if !Commute(a, b) {
		t.Error("independent writers should commute")
	}
	c := &Op{Name: "c", Reads: []string{"tokens"}, Writes: []string{"pos"}}
	if Commute(a, c) {
		t.Error("producer/consumer must not commute")
	}
	d := &Op{Name: "d"} // opaque
	if Commute(a, d) {
		t.Error("opaque operators must not commute")
	}
	e := &Op{Name: "e", Reads: []string{"x"}, Writes: []string{"tokens"}}
	if Commute(a, e) {
		t.Error("write-write conflict must not commute")
	}
}

func TestOptimizePushesFilterDown(t *testing.T) {
	p := &Plan{}
	src := p.Add(setOp("load", "text", "payload"))
	expensive := p.Add(&Op{Name: "ner", Pkg: IE, Reads: []string{"text"},
		Writes: []string{"entities"}, Selectivity: 1, Cost: Cost{PerKBms: 1000},
		Fn: func(r Record, emit Emit) error { emit(r); return nil }}, src)
	p.Add(&Op{Name: "lenFilter", Pkg: BASE, Filter: true, Selectivity: 0.5,
		Reads: []string{"size"},
		Fn:    func(r Record, emit Emit) error { emit(r); return nil }}, expensive)

	st := Optimize(p)
	if st.Swaps == 0 {
		t.Fatal("no swaps applied")
	}
	// After optimization the filter must run before the NER operator.
	order := map[string]int{}
	for i, n := range p.Nodes() {
		order[n.Op.Name] = i
	}
	if order["lenFilter"] > order["ner"] {
		t.Errorf("filter not pushed down: %v", order)
	}
}

func TestOptimizeRespectsDependencies(t *testing.T) {
	p := &Plan{}
	src := p.Add(setOp("load", "text", "payload"))
	tok := p.Add(&Op{Name: "tokenize", Pkg: IE, Reads: []string{"text"},
		Writes: []string{"tokens"}, Selectivity: 1, Cost: Cost{PerKBms: 1},
		Fn: func(r Record, emit Emit) error { emit(r); return nil }}, src)
	p.Add(&Op{Name: "posFilter", Pkg: BASE, Filter: true, Selectivity: 0.1,
		Reads: []string{"tokens"},
		Fn:    func(r Record, emit Emit) error { emit(r); return nil }}, tok)
	Optimize(p)
	order := map[string]int{}
	for i, n := range p.Nodes() {
		order[n.Op.Name] = i
	}
	if order["posFilter"] < order["tokenize"] {
		t.Error("dependent filter moved above its producer")
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	build := func() *Plan {
		p := &Plan{}
		src := p.Add(passOp("src"))
		f1 := p.Add(&Op{Name: "expensive", Pkg: IE, Reads: []string{"x"},
			Writes: []string{"e"}, Selectivity: 1, Cost: Cost{PerKBms: 100},
			Fn: func(r Record, emit Emit) error {
				out := r.Clone()
				out["e"] = r["x"].(int) * 2
				emit(out)
				return nil
			}}, src)
		p.Add(&Op{Name: "mod3", Pkg: BASE, Filter: true, Selectivity: 0.33,
			Reads: []string{"x"},
			Fn: func(r Record, emit Emit) error {
				if r["x"].(int)%3 == 0 {
					emit(r)
				}
				return nil
			}}, f1)
		return p
	}
	collect := func(p *Plan) []string {
		out, _ := runSingleSink(t, p, input(60), ExecConfig{DoP: 4})
		keys := make([]string, len(out))
		for i, r := range out {
			keys[i] = fmt.Sprintf("%v:%v", r["x"], r["e"])
		}
		sort.Strings(keys)
		return keys
	}
	plain := build()
	opt := build()
	st := Optimize(opt)
	if st.Swaps == 0 {
		t.Fatal("optimizer made no change; test is vacuous")
	}
	a, b := collect(plain), collect(opt)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("optimization changed results:\n%v\n%v", a, b)
	}
}

func TestPlanString(t *testing.T) {
	p := &Plan{}
	a := p.Add(passOp("first"))
	p.Add(passOp("second"), a)
	s := p.String()
	if !strings.Contains(s, "first") || !strings.Contains(s, "second") {
		t.Errorf("plan string:\n%s", s)
	}
}

func BenchmarkExecuteLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := &Plan{}
		src := p.Add(passOp("src"))
		cur := src
		for j := 0; j < 5; j++ {
			cur = p.Add(setOp(fmt.Sprint("op", j), fmt.Sprint("f", j), j), cur)
		}
		_, _, _ = Execute(p, input(500), ExecConfig{DoP: 2})
	}
}
