// The supervision report: what the supervisor did, as data (for
// cmd/crawl's summary and the doctor) and as exports (the supervision
// pillars, mergeable with the crawl pillars for diagnosis).

package supervisor

import (
	"fmt"
	"strings"

	"webtextie/internal/crawler/shard"
	"webtextie/internal/obs/pillars"
)

// Report summarizes a supervised run.
type Report struct {
	// Restarts[i] is the number of checkpoint restarts granted shard i.
	Restarts []int
	// Stalls[i] is the number of rounds shard i was flagged a straggler.
	Stalls []int
	// Fenced lists the shards fenced after exhausting their recovery
	// budget, ascending. Non-empty means the run completed degraded.
	Fenced []int
	// Crashes is the total number of panics observed (injected or real).
	Crashes int
	// MailDropped is the total number of cross-shard discoveries dropped
	// because their destination partition was fenced.
	MailDropped int

	// Snapshot is the supervision pillars' export — the fleet.* counters
	// in Metrics and the fleet.supervisor records in Logs; Traces is nil.
	// Separate from the crawl exports by design; pillars.Merge the two
	// only when diagnosing.
	pillars.Snapshot
}

// Report snapshots the supervisor's state. Call it after the run; the
// result shares no mutable state with the supervisor.
func (s *Supervisor) Report() *Report {
	rep := &Report{
		Restarts:    append([]int(nil), s.restarts...),
		Stalls:      append([]int(nil), s.stalls...),
		Crashes:     s.crashes,
		MailDropped: s.dropped,
		Snapshot:    s.p.Snapshot(),
	}
	for i := 0; i < s.r.Shards(); i++ {
		if s.r.Fenced(i) {
			rep.Fenced = append(rep.Fenced, i)
		}
	}
	return rep
}

// Quiet reports whether supervision had nothing to do: no crashes, no
// stalls, no fencing. cmd/crawl prints the recovery summary only when
// there is something to say.
func (rep *Report) Quiet() bool {
	return rep.Crashes == 0 && rep.MailDropped == 0 && len(rep.Fenced) == 0 && sum(rep.Stalls) == 0
}

// Summary renders the human-readable recovery summary cmd/crawl prints
// alongside the stats block. One line per shard that needed attention,
// then the fleet totals; deterministic.
func (rep *Report) Summary(degraded []shard.DegradedPartition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet recovery: %d crash(es), %d restart(s), %d stall flag(s), %d shard(s) fenced\n",
		rep.Crashes, sum(rep.Restarts), sum(rep.Stalls), len(rep.Fenced))
	for i := range rep.Restarts {
		if rep.Restarts[i] == 0 && rep.Stalls[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  shard %d: %d restart(s), %d stall flag(s)\n",
			i, rep.Restarts[i], rep.Stalls[i])
	}
	for _, d := range degraded {
		fmt.Fprintf(&b, "  DEGRADED: partition %d fenced at round %d (%d frontier URLs abandoned, %d discoveries dropped)\n",
			d.Shard, d.FencedAtRound, d.PendingLost, d.MailLost)
	}
	if len(degraded) > 0 {
		fmt.Fprintf(&b, "  corpus has known coverage holes: hosts hashing to fenced partitions are missing\n")
	}
	return b.String()
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
