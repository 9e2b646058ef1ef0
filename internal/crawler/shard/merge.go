// Merging: a sharded crawl ends with S private results; this file folds
// them into one fleet-level Result deterministically. Every merge is
// order-independent in substance (shards own disjoint URL and host
// populations) and performed in shard-index order in form, so one fleet
// always renders one byte sequence regardless of how many goroutines ran
// the rounds.

package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"webtextie/internal/crawldb"
	"webtextie/internal/crawler"
	"webtextie/internal/obs/pillars"
)

// Result is the merged output of a sharded crawl.
type Result struct {
	// Stats aggregates the fleet: additive fields sum across shards,
	// VirtualMs is the maximum shard clock (shards run in parallel, so the
	// fleet is done when its slowest shard is), Cycles counts fleet-wide
	// generate/fetch cycles, and FrontierEmptied holds only when every
	// shard drained.
	Stats crawler.Stats
	// Relevant and IrrelevantPages are the merged corpora in canonical
	// (URL-sorted) order — shard interleaving has no meaningful global
	// discovery order to preserve.
	Relevant        []crawler.CrawledPage
	IrrelevantPages []crawler.CrawledPage
	// LinkDB is the union link graph (source pages are fetched on exactly
	// one shard, so sources never conflict).
	LinkDB *crawldb.LinkDB
	// Snapshot is the fleet's pillars: the per-shard snapshots folded with
	// pillars.Merge in shard order, each pillar nil when it was off.
	// Metrics sums counters, histograms and gauges, so e.g. the merged
	// crawler.virtual.ms gauge is the total shard-clock time (cost) while
	// Stats.VirtualMs is the parallel makespan; Profile's calls and wall
	// time sum the same way (busy time, not elapsed time). Series is
	// not a merge: it is the runner's own recorder, one per-round sample
	// stream per metric on the makespan clock.
	pillars.Snapshot
	// PerShard holds each shard's own result, indexed by shard.
	PerShard []*crawler.Result
	// Rounds is the number of fleet supersteps executed.
	Rounds int
	// Stopped reports whether the fleet page budget ended the crawl.
	Stopped bool
	// Degraded lists host-hash partitions fenced out of the fleet, in
	// fencing order; empty for a healthy run. A degraded corpus is still
	// internally consistent — each fenced shard contributes its last
	// barrier state — but its host coverage has known holes.
	Degraded []DegradedPartition
}

// DegradedPartition records one host-hash partition the fleet lost: the
// shard was fenced after its recovery budget ran out, and every URL in
// its partition discovered afterwards was dropped.
type DegradedPartition struct {
	// Shard is the fenced partition's index (hosts with
	// Of(host, S) == Shard are the missing population).
	Shard int `json:"shard"`
	// FencedAtRound is the fleet round count when the shard was fenced.
	FencedAtRound int `json:"fenced_at_round"`
	// PendingLost is the frontier size abandoned at fencing time.
	PendingLost int `json:"pending_lost"`
	// MailLost counts cross-shard discoveries dropped at barriers after
	// fencing.
	MailLost int `json:"mail_lost,omitempty"`
}

// Finish drains the fleet into a merged Result. When the crawl ended by
// exhaustion (not the page budget), each drained shard records frontier
// exhaustion first — the runner never lets a shard observe mid-crawl
// emptiness (mail could still arrive), so the terminal mark happens here.
func (r *Runner) Finish() *Result {
	if !r.stopped {
		for i, s := range r.shards {
			// A fenced shard's frontier was abandoned, not drained — it
			// never records exhaustion, so the fleet-level
			// FrontierEmptied flag stays false on degraded runs.
			if !r.fenced[i] && s.c.Pending() == 0 {
				s.c.MarkFrontierEmptied()
			}
		}
	}
	perShard := make([]*crawler.Result, len(r.shards))
	for i, s := range r.shards {
		perShard[i] = s.c.Finish()
	}
	out := &Result{
		LinkDB:   crawldb.NewLinkDB(),
		PerShard: perShard,
		Rounds:   r.rounds,
		Stopped:  r.stopped,
		Degraded: append([]DegradedPartition(nil), r.degraded...),
	}
	snaps := make([]pillars.Snapshot, len(perShard))
	for i, res := range perShard {
		snaps[i] = res.Snapshot
		out.Stats = mergeStats(out.Stats, res.Stats, i == 0)
		out.Relevant = append(out.Relevant, res.Relevant...)
		out.IrrelevantPages = append(out.IrrelevantPages, res.IrrelevantPages...)
		res.LinkDB.ForEach(func(src string, targets []string) {
			out.LinkDB.AddLinks(src, targets)
		})
	}
	sortCorpus(out.Relevant)
	sortCorpus(out.IrrelevantPages)
	out.Snapshot = pillars.Merge(snaps...)
	out.Series = r.series.Snapshot()
	return out
}

// mergeStats folds one shard's stats into the fleet aggregate.
func mergeStats(acc, s crawler.Stats, first bool) crawler.Stats {
	out := acc
	out.Fetched += s.Fetched
	out.FetchErrors += s.FetchErrors
	out.RobotsBlocked += s.RobotsBlocked
	out.FilteredMIME += s.FilteredMIME
	out.FilteredLang += s.FilteredLang
	out.FilteredLength += s.FilteredLength
	out.Relevant += s.Relevant
	out.Irrelevant += s.Irrelevant
	out.RelevantBytes += s.RelevantBytes
	out.IrrelevantBytes += s.IrrelevantBytes
	out.EntityBoosted += s.EntityBoosted
	out.SelfTrainUpdates += s.SelfTrainUpdates
	out.Cycles += s.Cycles
	out.Retries += s.Retries
	out.RetriesExhausted += s.RetriesExhausted
	out.RateLimited += s.RateLimited
	out.BreakerOpens += s.BreakerOpens
	out.BreakerDeferred += s.BreakerDeferred
	if s.VirtualMs > out.VirtualMs {
		out.VirtualMs = s.VirtualMs
	}
	if first {
		out.FrontierEmptied = s.FrontierEmptied
	} else {
		out.FrontierEmptied = out.FrontierEmptied && s.FrontierEmptied
	}
	return out
}

// sortCorpus puts a merged corpus into canonical URL order (URLs are
// unique across shards, so the order is total).
func sortCorpus(pages []crawler.CrawledPage) {
	sort.Slice(pages, func(i, j int) bool { return pages[i].URL < pages[j].URL })
}

// CorpusManifest renders the merged corpora as one canonical line per
// page — URL, raw size, gold label, and an FNV-1a digest of the extracted
// net text — relevant pages first, each group URL-sorted. Two crawls
// stored identical corpora iff their manifests are byte-identical; the
// determinism and checkpoint suites compare this form.
//
// A degraded run appends one `deg` footer line per fenced partition, so
// a manifest consumer cannot mistake a corpus with known coverage holes
// for a complete one. Healthy runs emit no footer, keeping the form
// byte-compatible with every pre-supervision manifest.
func (res *Result) CorpusManifest() string {
	var b strings.Builder
	render := func(class string, pages []crawler.CrawledPage) {
		for _, p := range pages {
			h := fnv.New64a()
			h.Write([]byte(p.NetText))
			fmt.Fprintf(&b, "%s %s bytes=%d gold=%t text=%016x\n",
				class, p.URL, p.Bytes, p.GoldRelevant, h.Sum64())
		}
	}
	render("rel", res.Relevant)
	render("irr", res.IrrelevantPages)
	shards := len(res.PerShard)
	for _, d := range res.Degraded {
		fmt.Fprintf(&b, "deg shard=%d/%d fenced_round=%d pending_lost=%d mail_lost=%d\n",
			d.Shard, shards, d.FencedAtRound, d.PendingLost, d.MailLost)
	}
	return b.String()
}
