// Checkpoint/resume: a crawl can be frozen between Step calls, serialized
// to JSON, and resumed in a fresh process — the resumed crawl produces a
// byte-identical final corpus and metric snapshot. The checkpoint stores
// only crawl *state* (frontier, statuses, retry/breaker/clock state, the
// URLs of pages kept so far, the metric snapshot); page contents are
// rebuilt on resume by re-reading the deterministic web, which keeps
// checkpoints small and avoids serializing generator internals.

package crawler

import (
	"encoding/json"
	"fmt"

	"webtextie/internal/classify"
	"webtextie/internal/crawldb"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
)

// Checkpoint is a crawl frozen at a cycle boundary. encoding/json sorts
// map keys, so the serialized form is deterministic.
type Checkpoint struct {
	Stats       Stats                   `json:"stats"`
	DB          crawldb.Snapshot        `json:"crawldb"`
	Links       crawldb.LinkSnapshot    `json:"linkdb"`
	TunnelDepth map[string]int          `json:"tunnel_depth,omitempty"`
	PerHost     map[string]int          `json:"per_host,omitempty"`
	HostFree    map[string]int64        `json:"host_free,omitempty"`
	WorkerFree  []int64                 `json:"worker_free"`
	Breakers    map[string]BreakerState `json:"breakers,omitempty"`
	// RelevantURLs/IrrelevantURLs identify the pages stored so far, in
	// crawl order; Resume re-reads their contents from the web.
	RelevantURLs   []string `json:"relevant_urls"`
	IrrelevantURLs []string `json:"irrelevant_urls"`
	// Snapshot continues every attached pillar across the restart — its
	// fields are the checkpoint's last five keys (metrics, traces, logs,
	// series, profile), so a resumed run's exports match an uninterrupted
	// run's byte for byte. The log is frozen before the checkpoint.saved
	// record, which an uninterrupted run would not carry. Checkpoints
	// land between Step calls — after the cycle's series sample. The
	// profile's call counts continue exactly; its wall time carries over
	// as a running total.
	pillars.Snapshot
}

// Checkpoint freezes the crawler's state. Call it between Step calls
// (never mid-cycle). The result shares no mutable state with the crawler.
func (c *Crawler) Checkpoint() *Checkpoint { return c.checkpoint(true) }

// CheckpointSilent freezes the crawler's state without announcing the
// boundary: no checkpoint.saved log record. Supervisors take one of these
// at every round barrier as the shard's restart point; a snapshot the
// operator never asked for must not alter the exports, or a recovered
// run's logs would diverge from a fault-free run's.
func (c *Crawler) CheckpointSilent() *Checkpoint { return c.checkpoint(false) }

func (c *Crawler) checkpoint(announce bool) *Checkpoint {
	ph := c.pf.checkpoint.Enter()
	defer ph.Exit()
	cp := &Checkpoint{
		Stats:       c.stats,
		DB:          c.db.Snapshot(),
		Links:       c.ldb.Snapshot(),
		TunnelDepth: make(map[string]int, len(c.tunnelDepth)),
		PerHost:     make(map[string]int, len(c.perHost)),
		HostFree:    make(map[string]int64, len(c.hostFree)),
		WorkerFree:  append([]int64(nil), c.workerFree...),
		Breakers:    make(map[string]BreakerState, len(c.breakers)),
	}
	for u, d := range c.tunnelDepth {
		cp.TunnelDepth[u] = d
	}
	for h, n := range c.perHost {
		cp.PerHost[h] = n
	}
	for h, t := range c.hostFree {
		cp.HostFree[h] = t
	}
	for h, b := range c.breakers {
		cp.Breakers[h] = b.export()
	}
	for _, p := range c.relevant {
		cp.RelevantURLs = append(cp.RelevantURLs, p.URL)
	}
	for _, p := range c.irrelevant {
		cp.IrrelevantURLs = append(cp.IrrelevantURLs, p.URL)
	}
	// An announced checkpoint logs the boundary in the live sink only
	// (visible on /logs and in end-of-run exports): the record is emitted
	// after the freeze.
	cp.Snapshot = c.p.Snapshot()
	if announce {
		c.lg.checkpoint.Info("checkpoint.saved", c.nowMs(),
			trace.Int("cycle", int64(c.stats.Cycles)))
	}
	return cp
}

// Marshal serializes the checkpoint to deterministic indented JSON.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(cp, "", "  ")
}

// UnmarshalCheckpoint parses a serialized checkpoint.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// rebuildCorpus re-reads stored pages from the deterministic web,
// bypassing fault injection and the fetch counter (the original crawl
// already paid for these fetches).
func (c *Crawler) rebuildCorpus(urls []string) ([]CrawledPage, error) {
	var out []CrawledPage
	for _, u := range urls {
		page, err := c.web.PageContent(u)
		if err != nil {
			return nil, fmt.Errorf("crawler: resume cannot rebuild %s: %w", u, err)
		}
		ext := c.boiler.Extract(string(page.Body))
		out = append(out, CrawledPage{
			URL:          page.URL,
			NetText:      ext.NetText,
			Gold:         page.Doc,
			GoldRelevant: page.Relevant,
			Bytes:        len(page.Body),
		})
	}
	return out, nil
}

// Resume rebuilds a crawler from a checkpoint. The caller must supply the
// same config and an identically-constructed web and classifier (same
// seeds, same training) as the original crawl; with those in hand the
// resumed crawl's remaining Steps reproduce the uninterrupted run exactly.
// A SelfTraining crawl mutates its classifier as it runs — resuming one
// requires the caller to restore the classifier to its checkpoint-time
// state (or keep SelfTraining off for checkpointed crawls).
func Resume(cfg Config, web *synthweb.Web, clf *classify.NaiveBayes, cp *Checkpoint) (*Crawler, error) {
	c := New(cfg, web, clf)
	c.stats = cp.Stats
	c.db = crawldb.FromSnapshot(cp.DB)
	c.ldb = crawldb.FromLinkSnapshot(cp.Links)
	for u, d := range cp.TunnelDepth {
		c.tunnelDepth[u] = d
	}
	for h, n := range cp.PerHost {
		c.perHost[h] = n
	}
	for h, t := range cp.HostFree {
		c.hostFree[h] = t
	}
	if len(cp.WorkerFree) != len(c.workerFree) {
		return nil, fmt.Errorf("crawler: checkpoint has %d workers, config wants %d",
			len(cp.WorkerFree), len(c.workerFree))
	}
	copy(c.workerFree, cp.WorkerFree)
	for h, s := range cp.Breakers {
		br, err := importBreaker(s)
		if err != nil {
			return nil, err
		}
		c.breakers[h] = br
	}
	var err error
	if c.relevant, err = c.rebuildCorpus(cp.RelevantURLs); err != nil {
		return nil, err
	}
	if c.irrelevant, err = c.rebuildCorpus(cp.IrrelevantURLs); err != nil {
		return nil, err
	}
	// The private registry continues the metric streams now; any pillar
	// attached later loads its part of the snapshot in its With* setter.
	c.resume = cp.Snapshot
	c.p.Load(c.resume)
	return c, nil
}
