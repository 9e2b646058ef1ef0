package prof

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a frozen Profiler: every scope sorted by name. It is the
// unit that rides checkpoints, merges into fleet results, renders the
// end-of-run table, and — marshalled as is — the JSON export (the
// -prof-out file and the /profile body).
type Snapshot struct {
	Scopes []*ScopeData `json:"scopes,omitempty"`
}

// ScopeData is one scope's frozen accumulators: completed brackets and
// the wall nanoseconds they spanned.
type ScopeData struct {
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	WallNs int64  `json:"wall_ns"`
}

// Snapshot freezes the profiler: every scope sorted by name, a deep
// copy decoupled from further attribution.
func (p *Profiler) Snapshot() *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Snapshot{Scopes: make([]*ScopeData, 0, len(p.nodes))}
	for name, n := range p.nodes {
		out.Scopes = append(out.Scopes, &ScopeData{Name: name, Calls: n.calls.Load(), WallNs: n.wallNs.Load()})
	}
	sort.Slice(out.Scopes, func(i, j int) bool { return out.Scopes[i].Name < out.Scopes[j].Name })
	return out
}

// Load replaces the profiler's state with the snapshot's — the restore
// half of checkpoint/resume: subsequent brackets continue the
// accumulators where they stopped, so a resumed run's call counts equal
// an uninterrupted one's.
func (p *Profiler) Load(s *Snapshot) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes = make(map[string]*node, len(s.Scopes))
	for _, sd := range s.Scopes {
		if sd == nil {
			continue
		}
		n := &node{}
		n.calls.Store(sd.Calls)
		n.wallNs.Store(sd.WallNs)
		p.nodes[sd.Name] = n
	}
}

// Merge folds shard snapshots into one fleet snapshot: per-scope sums
// keyed by name, scopes sorted by name, nil snapshots skipped. Summation
// makes the call counts independent of DoP for a fixed shard count.
func Merge(snaps ...*Snapshot) *Snapshot {
	byName := map[string]*ScopeData{}
	out := &Snapshot{Scopes: []*ScopeData{}}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, sd := range s.Scopes {
			if sd == nil {
				continue
			}
			acc := byName[sd.Name]
			if acc == nil {
				acc = &ScopeData{Name: sd.Name}
				byName[sd.Name] = acc
				out.Scopes = append(out.Scopes, acc)
			}
			acc.Calls += sd.Calls
			acc.WallNs += sd.WallNs
		}
	}
	sort.Slice(out.Scopes, func(i, j int) bool { return out.Scopes[i].Name < out.Scopes[j].Name })
	return out
}

// Get returns the named scope's data, or nil when absent.
func (s *Snapshot) Get(name string) *ScopeData {
	if s == nil {
		return nil
	}
	i := sort.Search(len(s.Scopes), func(i int) bool { return s.Scopes[i].Name >= name })
	if i < len(s.Scopes) && s.Scopes[i].Name == name {
		return s.Scopes[i]
	}
	return nil
}

// totalNs is the wall time the snapshot attributes: the sum over
// outermost scopes, those not bracketed inside another scope of the
// snapshot (crawl.cycle counts, crawl.cycle.fetch is already in it).
// Scopes bracketed concurrently — dataflow operators, shards — all
// count, so the total is busy time and may exceed elapsed time.
func (s *Snapshot) totalNs() int64 {
	if s == nil {
		return 0
	}
	var total int64
	// Name order puts a scope's descendants right after it.
	outer := ""
	for _, sd := range s.Scopes {
		if outer == "" || !strings.HasPrefix(sd.Name, outer+".") {
			outer = sd.Name
			total += sd.WallNs
		}
	}
	return total
}

// Text renders the k most expensive scopes by wall time (ties by name;
// k <= 0 means all) as a fixed-width table: calls, wall milliseconds and
// the scope's share of the attributed total. Nested scopes overlap their
// parent, so shares add up to 100% only across outermost scopes. Scopes
// that never ran are left out.
func (s *Snapshot) Text(k int) string {
	var rows []*ScopeData
	if s != nil {
		for _, sd := range s.Scopes {
			if sd.Calls > 0 {
				rows = append(rows, sd)
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].WallNs > rows[j].WallNs })
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	total := s.totalNs()
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %7s\n", "SCOPE", "CALLS", "WALL_MS", "SHARE")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.WallNs) / float64(total)
		}
		fmt.Fprintf(&b, "%-40s %12d %12.3f %6.1f%%\n", r.Name, r.Calls, float64(r.WallNs)/1e6, share)
	}
	fmt.Fprintf(&b, "%-40s %12s %12.3f\n", "TOTAL", "", float64(total)/1e6)
	return b.String()
}
