// Package prof is the fifth observability pillar: a wall-clock stage
// profiler. Callers bracket a stage with Scope.Enter / Handle.Exit and
// the profiler accumulates, per stable dotted scope name — crawl cycle →
// frontier/fetch/filter/classify, checkpoint, dataflow operator — how
// often the stage ran and how many real nanoseconds it took, so "where
// did the wall time go" is one table at the end of a run.
//
// Call counts are deterministic wherever the bracketed code is; wall
// nanoseconds never are, so the profile stays outside every
// byte-identity contract. Flame stacks come from /debug/pprof.
//
// Scope resolution (Profiler.Scope) locks and may allocate; callers
// resolve scopes once at setup and keep the value-type Scope on the hot
// path, where Enter/Exit are atomic and allocation-free. Scope names
// follow the constant lower-dotted grammar metric names use; the lintx
// profname check enforces this at call sites outside this package, with
// ScopeName as the sanctioned builder for computed names.
package prof

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config shapes a Profiler. It has no knobs; the type is what the
// per-shard attach surfaces (shard.Runner.WithProf) pass along.
type Config struct{}

// node is one scope's accumulators, atomics so the value-type
// Scope/Handle hot-path operations need no lock.
type node struct {
	calls  atomic.Int64
	wallNs atomic.Int64
}

// Profiler owns the scopes. All methods are safe on a nil receiver
// (Scope returns a disabled Scope, Snapshot returns nil), so callers
// gate profiling with a single nil check, and safe for concurrent use.
type Profiler struct {
	mu    sync.Mutex
	nodes map[string]*node
}

// New returns an empty Profiler.
func New(Config) *Profiler {
	return &Profiler{nodes: map[string]*node{}}
}

// Scope resolves (creating if absent) the named scope. Names are
// constant lower-dotted paths ("crawl.cycle.fetch"); a scope whose name
// extends another's by a dotted suffix is bracketed inside it. Resolve
// once at setup — Scope locks; the returned value does not.
func (p *Profiler) Scope(name string) Scope {
	if p == nil {
		return Scope{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.nodes[name]
	if n == nil {
		n = &node{}
		p.nodes[name] = n
	}
	return Scope{n: n}
}

// ScopeName joins parts into a dotted scope path — the sanctioned
// builder for computed scope names (mirror of trace.TraceName and
// obs.MetricName), recognized by the lintx profname check.
func ScopeName(parts ...string) string {
	return strings.Join(parts, ".")
}

// Scope is a resolved handle on one scope. The zero value (and any
// Scope from a nil Profiler) is disabled: Enter is a cheap no-op, so hot
// paths need no branch beyond the one inside.
type Scope struct {
	n *node
}

// Handle is an open bracket. The zero value is disabled.
type Handle struct {
	n       *node
	startNs int64
}

// Enter opens a bracket on the scope; Exit charges one call and the
// elapsed wall nanoseconds. Allocation-free. This is the one place the
// package reads the real clock.
func (s Scope) Enter() Handle {
	if s.n == nil {
		return Handle{}
	}
	return Handle{n: s.n, startNs: time.Now().UnixNano()}
}

// Exit closes the bracket opened by Enter. No-op on a zero Handle.
func (h Handle) Exit() {
	if h.n == nil {
		return
	}
	h.n.calls.Add(1)
	h.n.wallNs.Add(time.Now().UnixNano() - h.startNs)
}
