package dataflow

// Property tests: randomized plans must execute correctly regardless of
// topology, and pass-through chains must conserve records.

import (
	"fmt"
	"testing"

	"webtextie/internal/rng"
)

// randomPlan builds a random DAG of pass-through and counting operators.
func randomPlan(r *rng.RNG, nNodes int) *Plan {
	p := &Plan{}
	nodes := []*Node{p.Add(passOp("src"))}
	for i := 1; i < nNodes; i++ {
		// Choose 1-2 existing nodes as inputs.
		var inputs []*Node
		inputs = append(inputs, nodes[r.Intn(len(nodes))])
		if r.Bool(0.25) {
			other := nodes[r.Intn(len(nodes))]
			if other != inputs[0] {
				inputs = append(inputs, other)
			}
		}
		nodes = append(nodes, p.Add(passOp(fmt.Sprint("op", i)), inputs...))
	}
	return p
}

func TestRandomPlansExecute(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		p := randomPlan(r, 2+r.Intn(10))
		if err := p.Validate(); err != nil {
			t.Fatalf("random plan invalid: %v", err)
		}
		in := input(20)
		results, stats, err := Execute(p, in, ExecConfig{DoP: 1 + r.Intn(4)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every sink's record count must equal the number of source-to-sink
		// paths times the input size (pass-through ops conserve records;
		// fan-in sums them).
		for _, sink := range p.Sinks() {
			paths := countPaths(p, sink)
			want := paths * len(in)
			if got := len(results[sink.ID()]); got != want {
				t.Fatalf("trial %d sink %d: %d records, want %d (%d paths)",
					trial, sink.ID(), got, want, paths)
			}
		}
		if stats.TotalErrors() != 0 {
			t.Fatalf("trial %d: unexpected errors", trial)
		}
	}
}

// countPaths counts source-to-node paths in the DAG.
func countPaths(p *Plan, n *Node) int {
	if len(n.Inputs) == 0 {
		return 1
	}
	total := 0
	for _, in := range n.Inputs {
		total += countPaths(p, in)
	}
	return total
}

func TestRandomPlansOptimizePreservesCardinality(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		build := func() *Plan {
			rr := rng.New(uint64(1000 + trial)) // same topology both times
			return randomPlan(rr, n)
		}
		plain := build()
		opt := build()
		Optimize(opt)
		in := input(15)
		r1, _, err1 := Execute(plain, in, ExecConfig{DoP: 4})
		r2, _, err2 := Execute(opt, in, ExecConfig{DoP: 4})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		c1, c2 := 0, 0
		for _, recs := range r1 {
			c1 += len(recs)
		}
		for _, recs := range r2 {
			c2 += len(recs)
		}
		if c1 != c2 {
			t.Fatalf("trial %d: optimizer changed cardinality %d -> %d", trial, c1, c2)
		}
	}
}

func TestHighDoPStress(t *testing.T) {
	p := &Plan{}
	src := p.Add(passOp("src"))
	cur := src
	for i := 0; i < 10; i++ {
		cur = p.Add(setOp(fmt.Sprint("s", i), fmt.Sprint("f", i), i), cur)
	}
	out, _ := runSingleSink(t, p, input(2000), ExecConfig{DoP: 16})
	if len(out) != 2000 {
		t.Fatalf("records = %d", len(out))
	}
	for _, r := range out {
		for i := 0; i < 10; i++ {
			if r[fmt.Sprint("f", i)] != i {
				t.Fatal("field lost under high DoP")
			}
		}
	}
}
