package trace

// Merge folds per-shard snapshots into one export-ready snapshot. Shards
// trace disjoint key populations (a URL's host hashes to exactly one
// shard), so the union is a simple concatenation; what needs care is the
// StartIndex sequence, which is per-recorder. Merge renumbers shard i's
// indices by the cumulative StartSeq of shards 0..i-1, keeping indices
// unique and order-preserving within each shard, and sums the sequence
// and loss counters — the merged snapshot Loads into a fresh recorder and
// exports deterministically.
//
// Each shard's traces are copied once, in blocks, as Snapshot copies
// them. The inputs are never mutated; like them, the merged snapshot is
// read-only, sharing their attr and event slices.
//
// The merge is deterministic in the argument order: callers pass shards
// in index order so one fleet always renders one byte sequence.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Traces: []*Trace{}}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		n := len(out.Traces)
		out.Traces = append(out.Traces, s.Traces...)
		freeze(out.Traces[n:])
		for _, t := range out.Traces[n:] {
			t.StartIndex += out.StartSeq
		}
		out.StartSeq += s.StartSeq
		out.Stats.Dropped += s.Stats.Dropped
		out.Stats.DroppedActive += s.Stats.DroppedActive
		out.Stats.PinDropped += s.Stats.PinDropped
	}
	return out
}
