package evlog

// Merge folds per-shard snapshots into one export-ready snapshot: the
// record union re-sorted into the canonical (AtMs, line) order, totals
// summed. The result is deterministic in the record
// multisets alone — shards emit on independent virtual clocks, so there
// is no meaningful global emission order to preserve, and the canonical
// sort gives every fleet exactly one byte rendering. A merged snapshot
// is an export surface, not a resume point: resume goes through the
// per-shard checkpoints, each carrying its own snapshot.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	var es []entry
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, r := range s.Records {
			es = append(es, entry{rec: r, line: r.line()})
		}
		for k, v := range s.Totals {
			if out.Totals == nil {
				out.Totals = map[string]uint64{}
			}
			out.Totals[k] += v
		}
	}
	out.Records = canonical(es)
	return out
}
