package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// HistSnapshot is the frozen state of one histogram. Counts has one entry
// per bound plus a final overflow (+Inf) entry. A snapshot produced by
// merging histograms with different bucket layouts degrades to count/sum
// only (nil Bounds/Counts).
type HistSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry. Individual values are
// read atomically; the snapshot as a whole is not a cross-metric atomic
// cut (writers racing the snapshot may land on either side, metric by
// metric).
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hs
	}
	return s
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge returns the union of two snapshots with values summed — for
// folding per-shard or per-component registries into one report. Gauges
// sum as well (shards hold disjoint populations). Histograms with
// mismatched bucket layouts merge to count/sum only.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)+len(o.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)+len(o.Hists)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range o.Counters {
		out.Counters[name] += v
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range o.Gauges {
		out.Gauges[name] += v
	}
	for name, h := range s.Hists {
		out.Hists[name] = h
	}
	for name, h := range o.Hists {
		prev, ok := out.Hists[name]
		if !ok {
			out.Hists[name] = h
			continue
		}
		m := HistSnapshot{Count: prev.Count + h.Count, Sum: prev.Sum + h.Sum}
		if sameBounds(prev.Bounds, h.Bounds) && len(prev.Counts) == len(h.Counts) {
			m.Bounds = append([]float64(nil), prev.Bounds...)
			m.Counts = make([]int64, len(prev.Counts))
			for i := range prev.Counts {
				m.Counts[i] = prev.Counts[i] + h.Counts[i]
			}
		}
		out.Hists[name] = m
	}
	return out
}

// Load seeds the registry from a snapshot: counters and histograms are
// added on top of any existing state, gauges are overwritten. This is the
// restore half of checkpoint/resume — a component that snapshots its
// registry mid-run, restarts, and Loads the snapshot into a fresh registry
// continues its metric streams exactly where they stopped (histogram
// bucket counts and sums included, provided the bucket layouts match; a
// degraded count/sum-only snapshot restores count and sum alone).
func (r *Registry) Load(s Snapshot) {
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Hists {
		h := r.Histogram(name, hs.Bounds...)
		h.load(hs)
	}
}

// load folds a frozen histogram state into h. Bucket-level restore needs
// matching layouts; otherwise only count and sum carry over.
func (h *Histogram) load(hs HistSnapshot) {
	if sameBounds(h.bounds, hs.Bounds) && len(h.counts) == len(hs.Counts) {
		for i, c := range hs.Counts {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(hs.Count)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+hs.Sum)) {
			return
		}
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the snapshot deterministically, one metric per line,
// counters then gauges then histograms, each sorted by name:
//
//	counter crawler.fetch.ok 118
//	gauge   crawler.frontier.pending 0
//	hist    crawler.page.cost.ms count=120 sum=324000 le2500:2 le5000:118
//
// Histogram lines list only non-empty buckets (leINF for the overflow).
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Hists[n]
		fmt.Fprintf(&b, "hist    %s count=%d sum=%s", n, h.Count, fmtFloat(h.Sum))
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%s:%d", fmtFloat(h.Bounds[i]), c)
			} else {
				fmt.Fprintf(&b, " leINF:%d", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
