// Checkpoint/resume for the fleet: the runner freezes at a round barrier
// — a consistent cut, since all mail is delivered before the barrier ends
// — into one manifest holding every shard's own crawler checkpoint. A
// shard (or the whole fleet) killed mid-round loses only that round;
// resuming from the last barrier re-executes it deterministically, so the
// resumed fleet's merged exports are byte-identical to an uninterrupted
// run's.

package shard

import (
	"encoding/json"
	"errors"
	"fmt"

	"webtextie/internal/classify"
	"webtextie/internal/crawler"
	"webtextie/internal/obs/series"
	"webtextie/internal/synthweb"
)

// Sentinel errors for the rejection paths callers legitimately branch on
// (errors.Is-testable). New and Resume wrap these with context.
var (
	// ErrReshard: the checkpoint's shard count differs from the config's.
	// The partitioning is part of the crawl plan — resharding a frontier
	// is a data migration, not a resume.
	ErrReshard = errors.New("shard count differs from checkpoint (resharding is a data migration, not a resume)")
	// ErrSelfTraining: SelfTraining mutates the shared classifier, which
	// would make shards race on model updates and break DoP-independence.
	ErrSelfTraining = errors.New("SelfTraining mutates the shared classifier; run it unsharded")
	// ErrManifest: the checkpoint manifest is structurally inconsistent
	// (crawler-state count does not match its own shard count).
	ErrManifest = errors.New("checkpoint manifest is inconsistent")
)

// Checkpoint is a sharded crawl frozen at a round barrier: the fleet
// manifest plus one serialized crawler checkpoint per shard.
type Checkpoint struct {
	Shards  int  `json:"shards"`
	Rounds  int  `json:"rounds"`
	Stopped bool `json:"stopped"`
	// Fenced lists shards that were fenced (degraded mode) when the
	// checkpoint was taken, ascending. Omitted for healthy fleets.
	Fenced []int `json:"fenced,omitempty"`
	// Degraded carries the fencing records for the fenced shards.
	Degraded []DegradedPartition `json:"degraded,omitempty"`
	// Crawlers holds shard i's crawler.Checkpoint at index i.
	Crawlers []json.RawMessage `json:"crawlers"`
	// Series continues the fleet time-series recorder across the restart
	// (nil when the fleet ran without sampling). Checkpoints land at round
	// barriers — after EndRound's sample — so a resumed fleet's series
	// export matches an uninterrupted run's byte for byte.
	Series *series.Snapshot `json:"series,omitempty"`
}

// Checkpoint freezes the fleet. Call it between Round calls (never
// mid-round): outboxes are empty at barriers, so no mail needs
// serializing — the frontier state in each shard checkpoint is complete.
func (r *Runner) Checkpoint() (*Checkpoint, error) {
	cp := &Checkpoint{
		Shards:   r.cfg.Shards,
		Rounds:   r.rounds,
		Stopped:  r.stopped,
		Degraded: append([]DegradedPartition(nil), r.degraded...),
		Crawlers: make([]json.RawMessage, len(r.shards)),
		Series:   r.series.Snapshot(),
	}
	for i, f := range r.fenced {
		if f {
			cp.Fenced = append(cp.Fenced, i)
		}
	}
	for i, s := range r.shards {
		data, err := s.c.Checkpoint().Marshal()
		if err != nil {
			return nil, fmt.Errorf("shard: checkpointing shard %d: %w", i, err)
		}
		cp.Crawlers[i] = data
	}
	return cp, nil
}

// Marshal serializes the manifest to deterministic indented JSON.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(cp, "", "  ")
}

// UnmarshalCheckpoint parses a serialized fleet checkpoint.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Resume rebuilds a fleet from a checkpoint. As with crawler.Resume, the
// caller supplies the same config, web factory, and classifier as the
// original run; the shard count must match the manifest (the partitioning
// is part of the crawl plan — resharding a frontier is a data migration,
// not a resume). Parallelism is free to differ: it is not part of the
// crawl state. Attach observability with WithTrace/WithLog after Resume,
// exactly as on a fresh runner — each shard then continues its
// checkpointed trace and log streams.
func Resume(cfg Config, newWeb func() *synthweb.Web, clf *classify.NaiveBayes, cp *Checkpoint) (*Runner, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d, want >= 1", cfg.Shards)
	}
	if cfg.Shards != cp.Shards {
		return nil, fmt.Errorf("shard: checkpoint has %d shards, config wants %d: %w",
			cp.Shards, cfg.Shards, ErrReshard)
	}
	if len(cp.Crawlers) != cp.Shards {
		return nil, fmt.Errorf("shard: checkpoint holds %d crawler states for %d shards: %w",
			len(cp.Crawlers), cp.Shards, ErrManifest)
	}
	if cfg.Crawl.SelfTraining {
		return nil, fmt.Errorf("shard: %w", ErrSelfTraining)
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = cfg.Shards
	}
	r := newRunner(cfg, clf)
	r.rounds = cp.Rounds
	r.stopped = cp.Stopped
	r.degraded = append([]DegradedPartition(nil), cp.Degraded...)
	for _, i := range cp.Fenced {
		if i < 0 || i >= cfg.Shards {
			return nil, fmt.Errorf("shard: checkpoint fences shard %d of %d: %w",
				i, cp.Shards, ErrManifest)
		}
		r.fenced[i] = true
	}
	for i := range r.shards {
		ccp, err := crawler.UnmarshalCheckpoint(cp.Crawlers[i])
		if err != nil {
			return nil, fmt.Errorf("shard: parsing shard %d checkpoint: %w", i, err)
		}
		s := &shardState{idx: i, web: newWeb(), outbox: make([][]mail, cfg.Shards)}
		s.c, err = crawler.Resume(r.shardCfg, s.web, clf, ccp)
		if err != nil {
			return nil, fmt.Errorf("shard: resuming shard %d: %w", i, err)
		}
		r.installRouter(s)
		r.shards[i] = s
	}
	// Sampling resumes lazily: WithSeries loads this into the new fleet
	// recorder.
	r.resumeSeries = cp.Series
	return r, nil
}
