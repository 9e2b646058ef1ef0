package evlog

import (
	"encoding/json"
	"sort"
	"testing"

	"webtextie/internal/obs"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
)

// refSink is the sink's retention as it stood before the shared keeper —
// three hand-written append-scan-swap classes that re-render both records'
// lines inside every comparison, and a Load that re-derives membership
// with its own sort — moved here as the oracle the keeper-based Sink is
// held to (TestRetentionMatchesReference, FuzzRetention). Its loss
// counters went when the sink's did.
type refSink struct {
	seed uint64
	b    bounds

	pinned []Record // Warn/Error, bottom-pin by priority
	tail   []Record // Debug/Info, most recent tail
	resv   []Record // bottom-resv sample of tail evictees

	totals map[string]uint64
}

// bounds are a sink's three retention bounds; a zero bound means the
// package's.
type bounds struct{ tail, resv, pin int }

func (b bounds) orDefault() bounds {
	if b.tail <= 0 {
		b.tail = tailKeep
	}
	if b.resv <= 0 {
		b.resv = reservoirKeep
	}
	if b.pin <= 0 {
		b.pin = pinKeep
	}
	return b
}

func (b bounds) sink(seed uint64) *Sink { return newSink(seed, b.tail, b.resv, b.pin) }

func newRefSink(seed uint64, b bounds) *refSink {
	return &refSink{seed: seed, b: b, totals: map[string]uint64{}}
}

func (s *refSink) emit(r Record) {
	s.totals[totalKey(r.Level, r.Component)]++
	if r.Level >= Warn {
		s.admitPinnedLocked(r)
	} else {
		s.admitTailLocked(r)
	}
}

func (s *refSink) prio(r Record) uint64 {
	return obs.FNVMix(s.seed, obs.FNVString(r.line()))
}

func (s *refSink) admitPinnedLocked(r Record) {
	s.pinned = append(s.pinned, r)
	if len(s.pinned) <= s.b.pin {
		return
	}
	worst := 0
	for i := 1; i < len(s.pinned); i++ {
		if s.recordLess(s.pinned[worst], s.pinned[i]) {
			worst = i
		}
	}
	s.pinned[worst] = s.pinned[len(s.pinned)-1]
	s.pinned = s.pinned[:len(s.pinned)-1]
}

func (s *refSink) recordLess(a, b Record) bool {
	pa, pb := s.prio(a), s.prio(b)
	if pa != pb {
		return pa < pb
	}
	return a.line() < b.line()
}

func (s *refSink) admitTailLocked(r Record) {
	s.tail = append(s.tail, r)
	if len(s.tail) <= s.b.tail {
		return
	}
	oldest := 0
	for i := 1; i < len(s.tail); i++ {
		if s.tailLess(s.tail[i], s.tail[oldest]) {
			oldest = i
		}
	}
	ev := s.tail[oldest]
	s.tail[oldest] = s.tail[len(s.tail)-1]
	s.tail = s.tail[:len(s.tail)-1]
	s.offerReservoirLocked(ev)
}

func (s *refSink) tailLess(a, b Record) bool {
	if a.AtMs != b.AtMs {
		return a.AtMs < b.AtMs
	}
	return s.recordLess(a, b)
}

func (s *refSink) offerReservoirLocked(r Record) {
	if len(s.resv) < s.b.resv {
		s.resv = append(s.resv, r)
		return
	}
	worst := 0
	for i := 1; i < len(s.resv); i++ {
		if s.recordLess(s.resv[worst], s.resv[i]) {
			worst = i
		}
	}
	if s.recordLess(r, s.resv[worst]) {
		s.resv[worst] = r
	}
}

func (s *refSink) snapshot() *Snapshot {
	out := &Snapshot{
		Records: make([]Record, 0, len(s.pinned)+len(s.tail)+len(s.resv)),
	}
	if len(s.totals) > 0 {
		out.Totals = make(map[string]uint64, len(s.totals))
		for k, v := range s.totals {
			out.Totals[k] = v
		}
	}
	for _, set := range [][]Record{s.pinned, s.tail, s.resv} {
		for _, r := range set {
			r.Attrs = append([]trace.Attr(nil), r.Attrs...)
			out.Records = append(out.Records, r)
		}
	}
	refSortRecords(out.Records)
	return out
}

func refSortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].AtMs != rs[j].AtMs {
			return rs[i].AtMs < rs[j].AtMs
		}
		return rs[i].line() < rs[j].line()
	})
}

func (s *refSink) load(snap *Snapshot) {
	for k, v := range snap.Totals {
		s.totals[k] = v
	}
	var low []Record
	for _, r := range snap.Records {
		r.Attrs = append([]trace.Attr(nil), r.Attrs...)
		if r.Level >= Warn {
			s.pinned = append(s.pinned, r)
		} else {
			low = append(low, r)
		}
	}
	// Largest (AtMs, priority) records form the tail; the rest were
	// reservoir survivors.
	sort.Slice(low, func(i, j int) bool { return s.tailLess(low[j], low[i]) })
	for i, r := range low {
		if i < s.b.tail {
			s.tail = append(s.tail, r)
		} else {
			s.resv = append(s.resv, r)
		}
	}
}

// retentionRecords draws nLow Debug/Info and nPin Warn/Error records from
// a vocabulary small enough that duplicate lines and equal AtMs are the
// norm, shuffled.
func retentionRecords(r *rng.RNG, nLow, nPin int) []Record {
	span := int64((nLow+nPin)/3 + 1)
	vals := []string{"a", "b", "host down", `q"=`, ""}
	recs := make([]Record, 0, nLow+nPin)
	for i := 0; i < nLow+nPin; i++ {
		rec := Record{
			AtMs:      int64(r.Intn(int(span))),
			Level:     Level(r.Intn(2)),
			Component: rng.Pick(r, []string{"crawler.fetch", "crawler.breaker", "dataflow.op"}),
			Msg:       rng.Pick(r, []string{"fetch.ok", "fetch.error", "op.emit"}),
		}
		if i >= nLow {
			rec.Level += Warn
		}
		for _, k := range []string{"cause", "rec"}[:r.Intn(3)] {
			rec.Attrs = append(rec.Attrs, trace.String(k, rng.Pick(r, vals)))
		}
		recs = append(recs, rec)
	}
	r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// checkRetention feeds one record multiset to the reference and — in a
// different order, each side checkpointed through JSON and resumed into a
// fresh sink at its own random point — to the real Sink, and demands the
// same retained records, totals and export bytes.
func checkRetention(t *testing.T, seed uint64, b bounds, nLow, nPin int) {
	t.Helper()
	r := rng.New(seed)
	recs := retentionRecords(r, nLow, nPin)
	roundTrip := func(snap *Snapshot) *Snapshot {
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		return &back
	}

	b = b.orDefault()
	ref, cut := newRefSink(seed, b), r.Intn(len(recs)+1)
	for i, rec := range recs {
		if i == cut {
			resumed := newRefSink(seed, b)
			resumed.load(roundTrip(ref.snapshot()))
			ref = resumed
		}
		ref.emit(rec)
	}

	sink, cut := b.sink(seed), r.Intn(len(recs)+1)
	for i, j := range r.Perm(len(recs)) {
		if i == cut {
			resumed := b.sink(seed)
			resumed.Load(roundTrip(sink.Snapshot()))
			sink = resumed
		}
		rec := recs[j]
		sink.Logger(rec.Component).emit(rec.Level, rec.Msg, rec.AtMs, rec.Attrs)
	}

	want, got := ref.snapshot(), sink.Snapshot()
	if n := sink.lenLocked(); n != len(want.Records) {
		t.Errorf("%d records retained, reference retains %d", n, len(want.Records))
	}
	if g, w := got.Logfmt(), want.Logfmt(); g != w {
		t.Errorf("logfmt differs from the reference:\n%s----\n%s", g, w)
	}
	if g, w := snapJSON(t, got), snapJSON(t, want); g != w {
		t.Errorf("JSON differs from the reference:\n%s\n----\n%s", g, w)
	}
}

// TestRetentionMatchesReference walks every class across its bound — one
// below, at, one past and far past the tail, tail+reservoir and pinned
// bounds — under small bounds, and past each bound under the package's
// (the zero bounds), where one reference case costs a good part of a
// second.
func TestRetentionMatchesReference(t *testing.T) {
	for ci, b := range []bounds{{5, 3, 4}, {1, 1, 1}, {}} {
		eff, dense := b.orDefault(), b != bounds{}
		sizes := func(bounds ...int) []int {
			ns := []int{0, 3 * bounds[len(bounds)-1]}
			for _, b := range bounds {
				if ns = append(ns, b+1); dense {
					ns = append(ns, b-1, b)
				}
			}
			return ns
		}
		for _, nLow := range sizes(eff.tail, eff.tail+eff.resv) {
			for _, nPin := range sizes(eff.pin) {
				checkRetention(t, uint64(ci*10000+nLow*10+nPin)+1, b, nLow, nPin)
			}
		}
	}
}

// FuzzRetention is the same differential over fuzzer-chosen bounds, sizes
// and seeds (a zero bound means the package's).
func FuzzRetention(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(3), uint8(4), uint16(40), uint16(20))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint16(3), uint16(2))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint16(330), uint16(260))
	f.Add(uint64(4), uint8(9), uint8(0), uint8(2), uint16(0), uint16(9))
	f.Fuzz(func(t *testing.T, seed uint64, tail, resv, pin uint8, nLow, nPin uint16) {
		b := bounds{tail: int(tail % 12), resv: int(resv % 8), pin: int(pin % 10)}
		checkRetention(t, seed, b, int(nLow%400), int(nPin%300))
	})
}
