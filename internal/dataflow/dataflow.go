// Package dataflow re-implements the execution model the paper builds on:
// Stratosphere's UDF-heavy data flows (§3.1). A flow is a DAG of operators
// drawn from domain-specific packages (BASE: relational; IE: information
// extraction; WA: web analytics; DC: data cleansing), assembled either
// programmatically or from a Meteor script (internal/meteor), logically
// optimized (internal/dataflow's optimizer, after SOFA [23]), and executed
// by a local parallel executor with a configurable degree of parallelism.
//
// Operators carry the metadata the paper's optimizer and war stories rely
// on: read/write field sets (SOFA's semantic annotations, enabling safe
// reordering), selectivity estimates, per-record cost, startup cost (the
// 20-minute dictionary load, §4.2), and memory footprints (the 6-20 GB
// per-worker appetite that capped the DoP, §4.2).
package dataflow

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Record is the JSON-like tuple flowing through an operator graph
// (Sopremo's data model).
type Record map[string]any

// Clone returns a shallow copy (fields are shared; operators must replace,
// not mutate, field values). Execute owns every record in flight: it clones
// each input record once at a source and once per extra reader of a
// fan-out, and nowhere else, so two records in flight may share values but
// never a map.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Pkg identifies the operator package (§3.1 lists the four).
type Pkg string

// The four operator packages shipped with the system.
const (
	BASE Pkg = "base"
	IE   Pkg = "ie"
	WA   Pkg = "wa"
	DC   Pkg = "dc"
)

// Emit passes an output record downstream.
type Emit func(Record)

// UDF is the operator implementation: for each input record, emit zero or
// more output records. Returning an error drops the record (counted in
// ExecStats) — the pipeline-robustness requirement of §5: a single
// malformed page must not kill an 80-day crawl analysis.
type UDF func(Record, Emit) error

// Keep is the UDF shape of a filter: the record passes unchanged when pred
// holds and is dropped otherwise.
func Keep(pred func(Record) bool) UDF {
	return func(rec Record, emit Emit) error {
		if pred(rec) {
			emit(rec)
		}
		return nil
	}
}

// Edit is the UDF shape of an annotator: f reads and fills fields on a
// private clone of the input, which is then emitted unless f fails. The
// clone is shallow, so f must replace field values, never mutate them (see
// Record.Clone). An operator that also sets Op.InPlace to f lets Execute
// skip the clone: it runs f on the record it owns.
func Edit(f func(Record) error) UDF {
	return func(rec Record, emit Emit) error {
		out := rec.Clone()
		if err := f(out); err != nil {
			return err
		}
		emit(out)
		return nil
	}
}

// Cost models one operator's resource behaviour for the simulated cluster.
type Cost struct {
	// PerKBms is virtual milliseconds of CPU per KB of input text.
	PerKBms float64
	// StartupMs is one-time per-worker initialization (dictionary loads).
	StartupMs float64
	// MemoryBytes is the per-worker resident footprint.
	MemoryBytes int64
}

// Op is one logical operator.
type Op struct {
	// Name is the operator's registry name.
	Name string
	// Pkg is the operator package.
	Pkg Pkg
	// Fn is the implementation. It never writes the record it is handed,
	// so any caller may run it on a record it shares. What it emits passes
	// to the caller, which may write it (Execute does): Fn emits a map at
	// most once and keeps none.
	Fn UDF
	// InPlace, when set, is an annotator's work on rec itself: it fills the
	// fields named in Writes, and Fn is its cloning form, Edit(InPlace).
	// Execute prefers it on the record it owns. Before each call the worker
	// saves every Writes field (its value, or its absence) in an undo log,
	// and an error, a panic or ErrStopFlow restores them, so a retry, the
	// dead letter and FailFast see the record as it entered the node.
	// Writes must therefore be explicit: not nil and without "*".
	InPlace func(rec Record) error
	// Init runs once per Execute, before any record flows: it pays startup
	// cost for real execution (the virtual StartupMs models it for
	// simulation) and creates the operator's per-run state, so a plan runs
	// the same every time.
	Init func() error

	// Reads/Writes are the record fields the operator touches — SOFA's
	// semantic annotations, the basis of safe reordering. A nil slice
	// means "unknown" (the optimizer treats the operator as opaque and
	// never reorders it); an empty non-nil slice declares "touches no
	// fields". Filter operators implicitly write nothing.
	Reads, Writes []string
	// Filter marks selective operators that only drop records (never
	// modify them) — always safe to push down subject to field deps.
	Filter bool
	// Selectivity estimates output records per input record.
	Selectivity float64
	// Cost feeds the simulated cluster.
	Cost Cost
}

// Node is an operator instance in a plan.
type Node struct {
	Op     *Op
	Inputs []*Node
	id     int
}

// ID returns the node's plan-unique id.
func (n *Node) ID() int { return n.id }

// Plan is a DAG of operator nodes with one source and one sink per branch.
type Plan struct {
	nodes []*Node
	next  int
}

// Add appends an operator node reading from the given inputs.
func (p *Plan) Add(op *Op, inputs ...*Node) *Node {
	n := &Node{Op: op, Inputs: inputs, id: p.next}
	p.next++
	p.nodes = append(p.nodes, n)
	return n
}

// Nodes returns the plan's nodes in insertion order.
func (p *Plan) Nodes() []*Node { return p.nodes }

// Size returns the number of operator nodes ("the complete data flow ...
// consists of 38 elementary operators", §3.2).
func (p *Plan) Size() int { return len(p.nodes) }

// Validate checks the DAG for dangling inputs and cycles, and every
// in-place operator for the explicit Writes its undo log needs.
func (p *Plan) Validate() error {
	index := map[*Node]bool{}
	for _, n := range p.nodes {
		index[n] = true
	}
	for _, n := range p.nodes {
		if n.Op.InPlace != nil && (n.Op.Writes == nil || slices.Contains(n.Op.Writes, "*")) {
			return fmt.Errorf("dataflow: in-place node %q must declare the fields it writes", n.Op.Name)
		}
		for _, in := range n.Inputs {
			if !index[in] {
				return fmt.Errorf("dataflow: node %q reads from a node outside the plan", n.Op.Name)
			}
		}
	}
	// Cycle check via DFS colors.
	color := map[*Node]int{}
	var visit func(*Node) error
	visit = func(n *Node) error {
		switch color[n] {
		case 1:
			return fmt.Errorf("dataflow: cycle through %q", n.Op.Name)
		case 2:
			return nil
		}
		color[n] = 1
		for _, in := range n.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		color[n] = 2
		return nil
	}
	for _, n := range p.nodes {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Sinks returns nodes no other node reads from.
func (p *Plan) Sinks() []*Node {
	hasReader := map[*Node]bool{}
	for _, n := range p.nodes {
		for _, in := range n.Inputs {
			hasReader[in] = true
		}
	}
	var out []*Node
	for _, n := range p.nodes {
		if !hasReader[n] {
			out = append(out, n)
		}
	}
	return out
}

// String renders the plan topologically for debugging and reports.
func (p *Plan) String() string {
	var b strings.Builder
	for _, n := range p.nodes {
		var ins []string
		for _, in := range n.Inputs {
			ins = append(ins, fmt.Sprintf("%d", in.id))
		}
		fmt.Fprintf(&b, "%3d %-6s %-28s <- [%s]\n", n.id, n.Op.Pkg, n.Op.Name, strings.Join(ins, ","))
	}
	return b.String()
}

// ErrStopFlow can be returned by a UDF to drop a record without counting
// it as a failure (normal filtering).
var ErrStopFlow = errors.New("dataflow: record filtered")

// normReads/normWrites resolve the nil-means-unknown convention into
// explicit sets, with "*" standing for "all fields".
func normReads(o *Op) []string {
	if o.Reads == nil {
		return []string{"*"}
	}
	return o.Reads
}

func normWrites(o *Op) []string {
	if o.Filter {
		return []string{} // filters only drop records
	}
	if o.Writes == nil {
		return []string{"*"}
	}
	return o.Writes
}

// fieldsOverlap reports whether two explicit field sets intersect. An
// empty set overlaps nothing; "*" overlaps any non-empty set.
func fieldsOverlap(a, b []string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	set := map[string]bool{}
	star := false
	for _, f := range a {
		if f == "*" {
			star = true
		}
		set[f] = true
	}
	for _, f := range b {
		if f == "*" || star || set[f] {
			return true
		}
	}
	return false
}

// Commute reports whether two adjacent map-style operators can be swapped:
// neither may write a field the other reads or writes (the SOFA condition).
func Commute(a, b *Op) bool {
	aw, bw := normWrites(a), normWrites(b)
	if fieldsOverlap(aw, normReads(b)) || fieldsOverlap(aw, bw) {
		return false
	}
	if fieldsOverlap(bw, normReads(a)) {
		return false
	}
	return true
}
