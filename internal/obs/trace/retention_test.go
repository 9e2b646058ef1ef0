package trace

import (
	"encoding/json"
	"sort"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/rng"
)

// refRetention is the recorder's retention as it stood before the shared
// keeper — two membership maps, a map-range argmin per eviction, and a
// Load that re-derives membership with its own sort — moved here verbatim
// as the oracle the keeper-based Recorder is held to
// (TestRetentionMatchesReference, FuzzRetention). It tracks which traces
// stay, not their spans.
type refRetention struct {
	cfg      Config
	traces   map[TraceID]*Trace
	pinCount int

	tail      map[TraceID]bool
	reservoir map[TraceID]bool

	dropped    uint64
	pinDropped uint64
}

func newRefRetention(cfg Config) *refRetention {
	return &refRetention{
		cfg:       NewRecorder(cfg).cfg,
		traces:    map[TraceID]*Trace{},
		tail:      map[TraceID]bool{},
		reservoir: map[TraceID]bool{},
	}
}

func (r *refRetention) pinLocked(t *Trace) {
	if t.Pinned {
		return
	}
	if r.pinCount >= r.cfg.PinLimit {
		r.pinDropped++
		return
	}
	t.Pinned = true
	r.pinCount++
	// Pinned traces leave the evictable sets.
	delete(r.tail, t.ID)
	delete(r.reservoir, t.ID)
}

func (r *refRetention) retainLocked(t *Trace) {
	if t.Pinned || t.StartIndex < uint64(r.cfg.HeadKeep) {
		return
	}
	r.tail[t.ID] = true
	if len(r.tail) <= r.cfg.TailKeep {
		return
	}
	// Evict the oldest tail member into the reservoir.
	oldest := TraceID(0)
	var oldestIdx uint64
	for id := range r.tail {
		if idx := r.traces[id].StartIndex; oldest == 0 || idx < oldestIdx {
			oldest, oldestIdx = id, idx
		}
	}
	delete(r.tail, oldest)
	r.reservoirOfferLocked(oldest)
}

func (r *refRetention) reservoirOfferLocked(id TraceID) {
	prio := func(id TraceID) uint64 { return obs.FNVMix(r.cfg.Seed, ^uint64(id)) }
	if len(r.reservoir) < r.cfg.ReservoirKeep {
		r.reservoir[id] = true
		return
	}
	worst := TraceID(0)
	var worstPrio uint64
	for m := range r.reservoir {
		if p := prio(m); worst == 0 || p > worstPrio {
			worst, worstPrio = m, p
		}
	}
	if prio(id) < worstPrio {
		delete(r.reservoir, worst)
		delete(r.traces, worst)
		r.reservoir[id] = true
	} else {
		delete(r.traces, id)
	}
	r.dropped++
}

// load is the old Recorder.Load's membership derivation.
func (r *refRetention) load(from *refRetention) {
	r.dropped, r.pinDropped = from.dropped, from.pinDropped
	var completed []*Trace
	for _, t := range from.traces {
		cp := *t
		r.traces[cp.ID] = &cp
		if cp.Pinned {
			r.pinCount++
		}
		if cp.Done && !cp.Pinned && cp.StartIndex >= uint64(r.cfg.HeadKeep) {
			completed = append(completed, &cp)
		}
	}
	// Largest TailKeep start indices form the tail; the rest were
	// reservoir survivors.
	sort.Slice(completed, func(i, j int) bool {
		return completed[i].StartIndex > completed[j].StartIndex
	})
	for i, t := range completed {
		if i < r.cfg.TailKeep {
			r.tail[t.ID] = true
		} else {
			r.reservoir[t.ID] = true
		}
	}
}

// checkRetention drives one random schedule — n traces started in
// sequence, erroring (pErr) and finishing in a shuffled order, some left
// open — through the bounded Recorder, an unbounded twin that keeps every
// span tree, and the reference. The Recorder and the reference are each
// checkpointed and resumed at a random step. What the Recorder retains
// must be the twin's traces the reference says stay, byte for byte.
func checkRetention(t *testing.T, seed uint64, cfg Config, n int, pErr float64) {
	t.Helper()
	r := rng.New(seed)
	wide := cfg
	wide.TailKeep = 1 << 30
	rec, twin, ref := NewRecorder(cfg), NewRecorder(wide), newRefRetention(cfg)

	var open []TraceID
	steps := 2*n - r.Intn(n/4+1) // the shortfall stays unfinished
	recCut, refCut := r.Intn(steps+1), r.Intn(steps+1)
	for step, started := 0, 0; step < steps; step++ {
		if step == recCut {
			blob, err := json.Marshal(rec.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var back Snapshot
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			rec = NewRecorder(cfg)
			rec.Load(&back)
		}
		if step == refCut {
			resumed := newRefRetention(cfg)
			resumed.load(ref)
			ref = resumed
		}
		at := int64(step / 3) // equal timestamps are the norm
		if started < n && (len(open) == 0 || r.Bool(0.5)) {
			key := rng.Pick(r, []string{"http://h0/a", "http://h1/b", "http://h2/c"})
			var id TraceID
			for _, rr := range []*Recorder{rec, twin} {
				tc := rr.Start("crawler.url", key, at, String("host", key[7:9]))
				tc.StartSpan("crawler.fetch.attempt", at+1).Event("fetch.ok", at+2)
				id = tc.Trace
			}
			ref.traces[id] = &Trace{ID: id, StartIndex: uint64(started)}
			open = append(open, id)
			started++
			continue
		}
		if len(open) == 0 {
			break
		}
		i := r.Intn(len(open))
		id := open[i]
		if r.Bool(pErr) {
			rec.Context(id).Error("breaker_open", at)
			twin.Context(id).Error("breaker_open", at)
			ref.pinLocked(ref.traces[id])
			if r.Bool(0.5) {
				continue // stays open and pinned, possibly across a cut
			}
		}
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		rec.Context(id).Finish(at)
		twin.Context(id).Finish(at)
		ref.traces[id].Done = true
		ref.retainLocked(ref.traces[id])
	}

	got, all := rec.Snapshot(), twin.Snapshot()
	want := &Snapshot{
		StartSeq: all.StartSeq,
		Stats:    SnapshotStats{Dropped: ref.dropped, PinDropped: ref.pinDropped},
		Traces:   []*Trace{},
	}
	for _, tr := range all.Traces {
		if ref.traces[tr.ID] != nil {
			want.Traces = append(want.Traces, tr)
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("stats = %+v, reference %+v", got.Stats, want.Stats)
	}
	if len(rec.traces) != len(ref.traces) {
		t.Errorf("%d traces retained, reference retains %d", len(rec.traces), len(ref.traces))
	}
	if g, w := got.Text(), want.Text(); g != w {
		t.Errorf("text differs from the reference:\n%s----\n%s", g, w)
	}
	if g, w := snapJSON(t, got), snapJSON(t, want); g != w {
		t.Errorf("JSON differs from the reference:\n%s\n----\n%s", g, w)
	}
}

// TestRetentionMatchesReference walks the evictable classes across their
// bounds — one below, at, one past and far past HeadKeep+TailKeep and
// HeadKeep+TailKeep+ReservoirKeep — with no errors, enough to overflow
// PinLimit, and mostly errors, under small bounds and the defaults.
func TestRetentionMatchesReference(t *testing.T) {
	for ci, cfg := range []Config{
		{HeadKeep: 2, TailKeep: 5, ReservoirKeep: 3, PinLimit: 4},
		{HeadKeep: 1, TailKeep: 1, ReservoirKeep: 1, PinLimit: 1},
		{},
	} {
		eff := NewRecorder(cfg).cfg
		tail := eff.HeadKeep + eff.TailKeep
		for _, n := range []int{1, tail - 1, tail, tail + 1, tail + eff.ReservoirKeep - 1,
			tail + eff.ReservoirKeep, tail + eff.ReservoirKeep + 1, 4 * (tail + eff.ReservoirKeep)} {
			for pi, pErr := range []float64{0, 0.3, 0.8} {
				cfg.Seed = uint64(ci*10000 + n*10 + pi)
				checkRetention(t, cfg.Seed+1, cfg, n, pErr)
			}
		}
	}
}

// FuzzRetention is the same differential over fuzzer-chosen bounds, sizes
// and seeds (a zero bound means the default).
func FuzzRetention(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(5), uint8(3), uint8(4), uint16(60), uint8(40))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint8(1), uint16(5), uint8(0))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint8(0), uint16(500), uint8(200))
	f.Add(uint64(4), uint8(3), uint8(0), uint8(2), uint8(9), uint16(130), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, head, tail, resv, pin uint8, n uint16, pErr uint8) {
		cfg := Config{Seed: seed, HeadKeep: int(head % 4), TailKeep: int(tail % 8),
			ReservoirKeep: int(resv % 6), PinLimit: int(pin % 10)}
		checkRetention(t, seed, cfg, 1+int(n%600), float64(pErr)/320)
	})
}
