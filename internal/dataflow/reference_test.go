package dataflow

// The executor's oracle: referenceExecute runs a plan the naive way and
// shares nothing with exec.go but safeUDF; FuzzExecuteMatchesReference
// holds Execute to it on random DAGs under a seeded failure schedule.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/rng"
)

// referenceExecute runs p over input in topological order, each node over
// the whole materialized output of its inputs at DoP 1, every reader handed
// its own clone of each record. It runs Op.Fn only, each attempt on a
// pristine clone; a terminal failure quarantines the record as it entered
// the node or, under FailFast, stops the run.
func referenceExecute(p *Plan, input []Record, cfg ExecConfig) (map[int][]Record, *ExecStats, error) {
	var order []*Node
	seen, hasReader := map[*Node]bool{}, map[*Node]bool{}
	var visit func(*Node)
	visit = func(n *Node) {
		if !seen[n] {
			seen[n] = true
			for _, in := range n.Inputs {
				visit(in)
				hasReader[in] = true
			}
			order = append(order, n)
		}
	}
	for _, n := range p.Nodes() {
		visit(n)
		if n.Op.Init != nil {
			if err := n.Op.Init(); err != nil {
				return nil, nil, err
			}
		}
	}
	outs, sinks := map[*Node][]Record{}, map[int][]Record{}
	stats := &ExecStats{PerNode: map[int]*NodeStats{}}
	for _, n := range order {
		ins := input
		if len(n.Inputs) > 0 {
			ins = nil
			for _, in := range n.Inputs {
				for _, r := range outs[in] {
					ins = append(ins, r.Clone())
				}
			}
		}
		ns := &NodeStats{}
		stats.PerNode[n.ID()] = ns
		for _, rec := range ins {
			ns.In++
			var emitted []Record
			var err error
			for attempt := 0; attempt <= cfg.OpRetries; attempt++ {
				if attempt > 0 {
					ns.Retries++
				}
				emitted = nil
				err = safeUDF(n.Op.Fn, rec.Clone(), func(r Record) { emitted = append(emitted, r) })
				if err == nil || errors.Is(err, ErrStopFlow) {
					break
				}
				if errors.Is(err, errPanic) {
					ns.Panics++
				}
			}
			switch {
			case err == nil:
				ns.Out += int64(len(emitted))
				outs[n] = append(outs[n], emitted...)
			case errors.Is(err, ErrStopFlow):
			case cfg.Policy == FailFast:
				ns.Errors++
				return nil, stats, fmt.Errorf("reference: op %q: %w", n.Op.Name, err)
			default:
				ns.Errors++
				ns.Quarantined++
				stats.Quarantined = append(stats.Quarantined,
					QuarantinedRecord{NodeID: n.ID(), Op: n.Op.Name, Err: err.Error(), Rec: rec})
			}
		}
		if !hasReader[n] {
			sinks[n.ID()] = outs[n]
		}
	}
	return sinks, stats, nil
}

// fate is what the failure schedule makes of one operator call.
type fate int

const (
	fateOK fate = iota
	fateFail
	fateCrash
	fateStop
)

// end ends an operator call as its fate says.
func (f fate) end() error {
	switch f {
	case fateFail:
		return errors.New("fuzz: bad record")
	case fateCrash:
		panic("fuzz: crash")
	case fateStop:
		return fmt.Errorf("fuzz: %w", ErrStopFlow)
	}
	return nil
}

// schedule is a fuzz case's seeded failure schedule. A record's fate at a
// node is a function of its content: it always fails, always crashes,
// always stops, passes, or fails transiently — its first k calls of every
// k+1, with k within the retry budget, so each presentation recovers on
// its k-th retry. Records of different inputs differ in "x", so one
// content's calls all come from the worker walking that input, in order.
type schedule struct {
	seed     uint64
	retries  int
	oneClass fate // under FailFast, every terminal failure is of one class
	mu       sync.Mutex
	calls    map[string]int
}

func (s *schedule) fate(node int, rec Record) fate {
	key := fmt.Sprint(node, canonical([]Record{rec}))
	s.mu.Lock()
	call := s.calls[key]
	s.calls[key]++
	s.mu.Unlock()
	r := rng.Keyed(s.seed, key)
	roll := r.Intn(100)
	switch {
	case roll < 6:
		if s.oneClass != fateOK {
			return s.oneClass
		}
		return fateFail + fate(r.Intn(2))
	case roll < 10:
		return fateStop
	case roll < 25 && s.retries > 0:
		if k := 1 + r.Intn(s.retries); call%(k+1) < k {
			return fateFail + fate(r.Intn(2))
		}
	}
	return fateOK
}

// fuzzCase generates one execution from seed: a random DAG of in-place and
// cloning maps, filters, 1:N emitters, projections and unions (with
// fan-outs, fan-ins and sometimes two sources), its input and its config.
// Every call builds fresh operator state, so each run starts the schedule
// afresh.
func fuzzCase(seed uint64) (*Plan, []Record, ExecConfig) {
	r := rng.New(seed)
	cfg := ExecConfig{OpRetries: r.Intn(4)}
	s := &schedule{seed: seed, retries: cfg.OpRetries, calls: map[string]int{}}
	if r.Bool(0.2) {
		cfg.Policy, s.oneClass = FailFast, fateFail+fate(r.Intn(2))
	}
	p := &Plan{}
	var nodes []*Node
	for id := range 2 + r.Intn(9) {
		var inputs []*Node
		if id > 0 && !r.Bool(0.1) {
			inputs = append(inputs, rng.Pick(r, nodes))
			if other := rng.Pick(r, nodes); other != inputs[0] && r.Bool(0.25) {
				inputs = append(inputs, other)
			}
		}
		nodes = append(nodes, p.Add(fuzzOp(r.Intn(6), id, s), inputs...))
	}
	input := make([]Record, 1+r.Intn(24))
	for i := range input {
		input[i] = Record{"x": i, "v": i}
	}
	return p, input, cfg
}

// fuzzOp is node id's operator of the given kind. The maps write "v" and a
// field of their own before their fate ends the call, so a failed attempt
// has written the record.
func fuzzOp(kind, id int, s *schedule) *Op {
	mark := fmt.Sprint("t", id)
	edit := func(rec Record) error {
		f := s.fate(id, rec)
		rec["v"], rec[mark] = rec["v"].(int)*31+id, id
		return f.end()
	}
	op := &Op{Name: fmt.Sprint("op", id), Pkg: BASE, Reads: []string{"v"}, Writes: []string{"v", mark}, Selectivity: 1}
	switch kind {
	case 0: // in-place map
		op.Fn, op.InPlace = Edit(edit), edit
	case 1: // cloning map
		op.Fn = Edit(edit)
	case 2: // filter
		op.Filter, op.Writes = true, []string{}
		op.Fn = func(rec Record, emit Emit) error {
			if err := s.fate(id, rec).end(); err != nil {
				return err
			}
			if (rec["v"].(int)+id)%3 != 0 {
				emit(rec)
			}
			return nil
		}
	case 3: // 1:N, emitting before its fate ends the call
		op.Writes = nil
		op.Fn = func(rec Record, emit Emit) error {
			f, v := s.fate(id, rec), rec["v"].(int)
			for i := range (v + id) % 3 {
				emit(Record{"x": rec["x"], "v": v*7 + i, "part": i})
			}
			return f.end()
		}
	case 4: // project
		op.Writes = []string{"*"}
		op.Fn = func(rec Record, emit Emit) error {
			f := s.fate(id, rec)
			emit(Record{"x": rec["x"], "v": rec["v"]})
			return f.end()
		}
	default: // union
		op.Writes = []string{}
		op.Fn = func(rec Record, emit Emit) error { emit(rec); return nil }
	}
	return op
}

// renderRun renders what a run published, order-insensitively: each sink's
// records, each node's counters and the dead letters.
func renderRun(sinks map[int][]Record, st *ExecStats) string {
	var b strings.Builder
	for _, id := range slices.Sorted(maps.Keys(st.PerNode)) {
		ns := st.PerNode[id]
		fmt.Fprintf(&b, "node %d in=%d out=%d errors=%d retries=%d panics=%d quarantined=%d\n",
			id, ns.In, ns.Out, ns.Errors, ns.Retries, ns.Panics, ns.Quarantined)
		if recs := sinks[id]; len(recs) > 0 {
			fmt.Fprintf(&b, "  sink %v\n", canonical(recs))
		}
	}
	var dead []string
	for _, q := range st.Quarantined {
		dead = append(dead, fmt.Sprintf("%d %s %s %v", q.NodeID, q.Op, q.Err, canonical([]Record{q.Rec})))
	}
	slices.Sort(dead)
	return b.String() + strings.Join(dead, "\n")
}

// FuzzExecuteMatchesReference: at DoP 1, 2 and 4, Execute publishes what
// the reference does — sink multisets, per-node counters, dead letters —
// and leaves its input untouched; under FailFast both abort, with the same
// error class.
func FuzzExecuteMatchesReference(f *testing.F) {
	for seed := range uint64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p, input, cfg := fuzzCase(seed)
		sinks, st, refErr := referenceExecute(p, input, cfg)
		want := ""
		if refErr == nil {
			want = renderRun(sinks, st)
		}
		for _, dop := range []int{1, 2, 4} {
			p, input, cfg := fuzzCase(seed)
			pristine := canonical(input)
			cfg.DoP = dop
			sinks, st, err := Execute(p, input, cfg)
			if !slices.Equal(canonical(input), pristine) {
				t.Fatalf("seed %d DoP %d: Execute wrote its input", seed, dop)
			}
			if (err == nil) != (refErr == nil) || errors.Is(err, errPanic) != errors.Is(refErr, errPanic) {
				t.Fatalf("seed %d DoP %d: error %v, reference %v\n%s", seed, dop, err, refErr, p)
			}
			if got := renderRun(sinks, st); refErr == nil && got != want {
				t.Fatalf("seed %d DoP %d (retries %d):\n%s\ngot:\n%s\nreference:\n%s", seed, dop, cfg.OpRetries, p, got, want)
			}
		}
	})
}
