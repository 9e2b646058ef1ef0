package meteor

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webtextie/internal/dataflow"
)

// toyRegistry resolves a few synthetic operators.
func toyRegistry() Registry {
	return RegistryFunc(func(name string, params Params) (*dataflow.Op, error) {
		switch name {
		case "filter_min":
			min := params["min"].Num
			return &dataflow.Op{Name: name, Pkg: dataflow.BASE, Filter: true,
				Reads: []string{"x"}, Selectivity: 0.5,
				Fn: func(r dataflow.Record, emit dataflow.Emit) error {
					if float64(r["x"].(int)) >= min {
						emit(r)
					}
					return nil
				}}, nil
		case "double":
			return &dataflow.Op{Name: name, Pkg: dataflow.BASE,
				Reads: []string{"x"}, Writes: []string{"y"}, Selectivity: 1,
				Fn: func(r dataflow.Record, emit dataflow.Emit) error {
					out := r.Clone()
					out["y"] = r["x"].(int) * 2
					emit(out)
					return nil
				}}, nil
		case "label":
			lbl := params["value"].Str
			return &dataflow.Op{Name: name, Pkg: dataflow.DC,
				Reads: []string{}, Writes: []string{"label"}, Selectivity: 1,
				Fn: func(r dataflow.Record, emit dataflow.Emit) error {
					out := r.Clone()
					out["label"] = lbl
					emit(out)
					return nil
				}}, nil
		case "union":
			return &dataflow.Op{Name: name, Pkg: dataflow.BASE,
				Reads: []string{}, Writes: []string{}, Selectivity: 1,
				Fn: func(r dataflow.Record, emit dataflow.Emit) error {
					emit(r)
					return nil
				}}, nil
		default:
			return nil, fmt.Errorf("unknown operator %q", name)
		}
	})
}

func records(n int) []dataflow.Record {
	out := make([]dataflow.Record, n)
	for i := range out {
		out[i] = dataflow.Record{"x": i}
	}
	return out
}

const basicScript = `
-- a simple linear flow
$in   = read from 'src';
$big  = filter_min $in with min=5;
$dbl  = double $big;
write $dbl to 'out';
`

func TestParseBasic(t *testing.T) {
	s, err := Parse(basicScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	if s.Stmts[0].Source != "src" || s.Stmts[0].Var != "in" {
		t.Errorf("read stmt: %+v", s.Stmts[0])
	}
	if s.Stmts[1].OpName != "filter_min" || s.Stmts[1].Params["min"].Num != 5 {
		t.Errorf("op stmt: %+v", s.Stmts[1])
	}
	if s.Stmts[3].SinkName != "out" {
		t.Errorf("write stmt: %+v", s.Stmts[3])
	}
}

func TestRunBasic(t *testing.T) {
	out, stats, err := Run(basicScript, toyRegistry(),
		map[string][]dataflow.Record{"src": records(10)}, false, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := out["out"]
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if r["y"].(int) != r["x"].(int)*2 {
			t.Errorf("bad record %v", r)
		}
		if _, ok := r[SourceField]; ok {
			t.Error("source tag leaked to output")
		}
	}
	if stats.Wall <= 0 {
		t.Error("no wall time")
	}
}

func TestRunWithOptimizer(t *testing.T) {
	// Results must be identical with and without optimization.
	in := map[string][]dataflow.Record{"src": records(20)}
	plain, _, err := Run(basicScript, toyRegistry(), in, false, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Run(basicScript, toyRegistry(), in, true, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain["out"]) != len(opt["out"]) {
		t.Fatalf("optimizer changed cardinality: %d vs %d", len(plain["out"]), len(opt["out"]))
	}
}

// TestRunOneSourceClonesOnce: a one-source script hands its untagged
// inputs to Execute as they are. The inputs stay as they were, the outputs
// equal those of inputs that carry a tag (which Run still clones and
// re-tags, as it tags every input of a many-source script), and the run
// costs at least one allocation per input less.
func TestRunOneSourceClonesOnce(t *testing.T) {
	reg, cfg := toyRegistry(), dataflow.ExecConfig{DoP: 1}
	plain, tagged := records(40), records(40)
	for _, r := range tagged {
		r[SourceField] = "stale"
	}
	run := func(in []dataflow.Record) map[string][]dataflow.Record {
		out, _, err := Run(basicScript, reg, map[string][]dataflow.Record{"src": in}, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(plain), run(tagged)
	if !reflect.DeepEqual(plain, records(40)) {
		t.Error("Run wrote its input records")
	}
	if len(got["out"]) != 35 || !reflect.DeepEqual(got, want) {
		t.Errorf("untagged inputs gave %v, tagged ones %v", got, want)
	}
	saved := testing.AllocsPerRun(10, func() { run(tagged) }) - testing.AllocsPerRun(10, func() { run(plain) })
	if saved < float64(len(plain)) {
		t.Errorf("untagged inputs save %.1f allocations, want at least one per input (%d)", saved, len(plain))
	}
}

func TestMultipleSourcesAndSinks(t *testing.T) {
	script := `
$a = read from 'alpha';
$b = read from 'beta';
$la = label $a with value='A';
$lb = label $b with value='B';
$all = union $la $lb;
write $all to 'merged';
write $la to 'onlyA';
`
	out, _, err := Run(script, toyRegistry(), map[string][]dataflow.Record{
		"alpha": records(3),
		"beta":  records(4),
	}, false, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["merged"]) != 7 {
		t.Errorf("merged = %d", len(out["merged"]))
	}
	if len(out["onlyA"]) != 3 {
		t.Errorf("onlyA = %d", len(out["onlyA"]))
	}
	for _, r := range out["onlyA"] {
		if r["label"] != "A" {
			t.Errorf("wrong label: %v", r)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"$x = read from 'a'",                   // missing semicolon
		"$x = ;",                               // missing operator
		"write $x to 'y';",                     // undefined var (compile error)
		"$x = read from 'a'; $y = bogus $x;",   // unknown op (compile error)
		"$x = double;",                         // op without input
		"$x = read 'a';",                       // missing from
		"$x = read from 'a1; write $x to 'o';", // unterminated string
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue // parse error is fine
		}
		if _, err := Compile(s, toyRegistry()); err == nil {
			t.Errorf("script %q compiled without error", src)
		}
	}
}

func TestCompileRequiresWrite(t *testing.T) {
	s, err := Parse("$x = read from 'a';")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s, toyRegistry()); err == nil ||
		!strings.Contains(err.Error(), "write") {
		t.Errorf("err = %v", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	script := `
-- leading comment
$in = read from 'src';   -- trailing comment
write $in to 'out'; -- done
`
	out, _, err := Run(script, toyRegistry(),
		map[string][]dataflow.Record{"src": records(2)}, false, dataflow.ExecConfig{DoP: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != 2 {
		t.Errorf("out = %d", len(out["out"]))
	}
}

func TestStringAndIdentParams(t *testing.T) {
	s, err := Parse(`$a = read from 'x'; $b = label $a with value=hello; write $b to 'o';`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stmts[1].Params["value"].Str != "hello" {
		t.Errorf("ident param: %+v", s.Stmts[1].Params)
	}
}

func TestUndefinedInputVariable(t *testing.T) {
	s, err := Parse(`$a = read from 'x'; $b = double $zzz; write $b to 'o';`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(s, toyRegistry()); err == nil {
		t.Fatal("undefined input not rejected")
	}
}

func TestPlanSizeMatchesScript(t *testing.T) {
	s, err := Parse(basicScript)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s, toyRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// read + filter + double + write = 4 nodes.
	if c.Plan.Size() != 4 {
		t.Errorf("plan size = %d", c.Plan.Size())
	}
	if len(c.Sources) != 1 || c.Sources[0] != "src" {
		t.Errorf("sources = %v", c.Sources)
	}
}
