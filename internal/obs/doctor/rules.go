package doctor

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"webtextie/internal/obs/evlog"
)

// rules is the engine's rule set. Each rule reads the input and returns
// zero or more findings; rules must be pure (no clocks, no randomness)
// and must produce deterministic summaries and evidence — every number
// they print comes from the snapshots.
//
// The rule themes are the paper's §5-6 pitfalls: harvest-rate collapse,
// hosts going dark mid-crawl, spider traps flooding the frontier,
// filters silently eating the corpus, and extraction operators
// quarantining whole slices of records.
var rules = []func(Input) []Finding{
	harvestCollapse,
	breakerStorm,
	deadHosts,
	spiderTrap,
	frontierExhausted,
	retryChurn,
	rateLimitPressure,
	filterDominance,
	quarantineHeavyOps,
	opPanics,
	fleetFaults,
	// Time-aware rules (timerules.go) — need the series pillar.
	harvestDecay,
	breakerOscillation,
	frontierStarvationTrend,
	throughputCliff,
	// Cost rules (profrules.go) — the per-shard virtual clocks, and the
	// profile pillar.
	shardCostSkew,
	checkpointOverheadDominance,
}

// harvestCollapse fires when the classifier rejects most of what the
// crawler fetches — the focused crawl is paying full fetch cost for an
// irrelevant frontier (the paper's decaying-harvest-rate story).
func harvestCollapse(in Input) []Finding {
	rel := in.Metrics.Counter("crawler.classify.relevant")
	irr := in.Metrics.Counter("crawler.classify.irrelevant")
	total := rel + irr
	if total < 20 || ratio(rel, total) >= 0.2 {
		return nil
	}
	return []Finding{{
		Rule:     "harvest-collapse",
		Severity: Critical,
		Score:    1 - ratio(rel, total),
		Summary: fmt.Sprintf("harvest rate %s: %d of %d classified pages relevant",
			pct(rel, total), rel, total),
		Evidence: []string{
			fmt.Sprintf("crawler.classify.relevant=%d crawler.classify.irrelevant=%d", rel, irr),
		},
	}}
}

// breakerStorm fires when circuit breakers opened during the run: hosts
// went dark and the crawler is routing around them.
func breakerStorm(in Input) []Finding {
	opened := in.Metrics.Counter("crawler.breaker.opened")
	if opened == 0 {
		return nil
	}
	openNow := in.Metrics.Gauge("crawler.breaker.open.hosts")
	sev := Warning
	if openNow > 0 {
		sev = Critical
	}
	f := Finding{
		Rule:     "breaker-storm",
		Severity: sev,
		Score:    ratio(opened, opened+10),
		Summary: fmt.Sprintf("circuit breakers opened %d times; %d hosts open now",
			opened, openNow),
		Evidence: []string{
			fmt.Sprintf("crawler.breaker.opened=%d crawler.breaker.deferred=%d crawler.breaker.open.hosts=%d",
				opened, in.Metrics.Counter("crawler.breaker.deferred"), openNow),
		},
	}
	if n := in.traceErrs()["breaker_open"]; n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("%d pinned traces carry breaker_open lineage (see /traces?err=breaker_open)", n))
	}
	if n := in.logTotal(evlog.Warn, "crawler.breaker"); n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("event log holds %d breaker warnings (see /logs?component=crawler.breaker)", n))
	}
	return []Finding{f}
}

// deadHosts fires when fetches failed with host-down errors.
func deadHosts(in Input) []Finding {
	down := in.Metrics.Counter("crawler.fetch.hostdown")
	if down == 0 {
		return nil
	}
	errs := in.Metrics.Counter("crawler.fetch.errors")
	return []Finding{{
		Rule:     "dead-hosts",
		Severity: Warning,
		Score:    ratio(down, errs),
		Summary: fmt.Sprintf("%d fetch attempts hit dead hosts (%s of fetch errors)",
			down, pct(down, errs)),
		Evidence: []string{
			fmt.Sprintf("crawler.fetch.hostdown=%d crawler.fetch.errors=%d", down, errs),
		},
	}}
}

// spiderTrap fires when the per-host page cap rejects a large share of
// discovered links — the frontier is dominated by a few bottomless
// hosts (the paper's calendar-page trap).
func spiderTrap(in Input) []Finding {
	trapped := in.Metrics.Counter("crawler.frontier.trap")
	links := in.Metrics.Counter("crawler.links.discovered")
	if trapped == 0 || ratio(trapped, links) < 0.3 {
		return nil
	}
	f := Finding{
		Rule:     "spider-trap",
		Severity: Warning,
		Score:    ratio(trapped, links),
		Summary: fmt.Sprintf("%s of discovered links (%d of %d) hit the per-host page cap",
			pct(trapped, links), trapped, links),
		Evidence: []string{
			fmt.Sprintf("crawler.frontier.trap=%d crawler.links.discovered=%d", trapped, links),
		},
	}
	if n := in.logTotal(evlog.Debug, "crawler.frontier"); n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("event log names %d hosts that reached the page cap (see /logs?component=crawler.frontier)", n))
	}
	return []Finding{f}
}

// frontierExhausted notes that the crawl stopped because it ran out of
// URLs rather than hitting its page budget. frontier.exhausted is the
// crawler.frontier logger's one Warn record, so its exact total answers
// even when retention shed the record itself.
func frontierExhausted(in Input) []Finding {
	if in.logTotal(evlog.Warn, "crawler.frontier") == 0 {
		return nil
	}
	return []Finding{{
		Rule:     "frontier-exhausted",
		Severity: Note,
		Score:    1,
		Summary:  "crawl ended on an empty frontier, not on its page budget",
		Evidence: []string{
			fmt.Sprintf("crawler.frontier.pending=%d at end of run",
				in.Metrics.Gauge("crawler.frontier.pending")),
			"event log records frontier.exhausted",
		},
	}}
}

// retryChurn fires when retries rival successful fetches — the crawl is
// spending its politeness budget re-fetching failures.
func retryChurn(in Input) []Finding {
	retries := in.Metrics.Counter("crawler.retry.scheduled")
	ok := in.Metrics.Counter("crawler.fetch.ok")
	if retries == 0 || ok == 0 || float64(retries) < 0.5*float64(ok) {
		return nil
	}
	exhausted := in.Metrics.Counter("crawler.retry.exhausted")
	f := Finding{
		Rule:     "retry-churn",
		Severity: Warning,
		Score:    ratio(retries, retries+ok),
		Summary: fmt.Sprintf("%d retries against %d successful fetches; %d URLs exhausted their budget",
			retries, ok, exhausted),
		Evidence: []string{
			fmt.Sprintf("crawler.retry.scheduled=%d crawler.fetch.ok=%d crawler.retry.exhausted=%d",
				retries, ok, exhausted),
		},
	}
	if n := in.traceErrs()["retry_exhausted"]; n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("%d pinned traces carry retry_exhausted lineage (see /traces?err=retry_exhausted)", n))
	}
	return []Finding{f}
}

// rateLimitPressure notes heavy 429 traffic: the crawl is outrunning
// host rate limits and burning virtual time on retry-after waits.
func rateLimitPressure(in Input) []Finding {
	limited := in.Metrics.Counter("crawler.fetch.ratelimited")
	ok := in.Metrics.Counter("crawler.fetch.ok")
	if limited == 0 || float64(limited) < 0.25*float64(limited+ok) {
		return nil
	}
	return []Finding{{
		Rule:     "rate-limit-pressure",
		Severity: Note,
		Score:    ratio(limited, limited+ok),
		Summary:  fmt.Sprintf("%d fetches rate-limited against %d successes", limited, ok),
		Evidence: []string{
			fmt.Sprintf("crawler.fetch.ratelimited=%d crawler.fetch.ok=%d", limited, ok),
		},
	}}
}

// filterDominance fires when content filters reject more pages than the
// classifier ever sees — the corpus is being shaped by MIME/length/lang
// gates, not by relevance (the paper's silently-shrinking-corpus story).
func filterDominance(in Input) []Finding {
	mime := in.Metrics.Counter("crawler.filter.mime")
	lang := in.Metrics.Counter("crawler.filter.lang")
	length := in.Metrics.Counter("crawler.filter.length")
	filtered := mime + lang + length
	ok := in.Metrics.Counter("crawler.fetch.ok")
	if filtered == 0 || ok == 0 || ratio(filtered, ok) < 0.5 {
		return nil
	}
	dominant, dval := "mime", mime
	if lang > dval {
		dominant, dval = "lang", lang
	}
	if length > dval {
		dominant, dval = "length", length
	}
	return []Finding{{
		Rule:     "filter-dominance",
		Severity: Warning,
		Score:    ratio(filtered, ok),
		Summary: fmt.Sprintf("filters rejected %s of fetched pages (%d of %d); %s filter dominates with %d",
			pct(filtered, ok), filtered, ok, dominant, dval),
		Evidence: []string{
			fmt.Sprintf("crawler.filter.mime=%d crawler.filter.lang=%d crawler.filter.length=%d crawler.fetch.ok=%d",
				mime, lang, length, ok),
		},
	}}
}

// eachOpCounter calls fn, in counter-name order, for every non-zero
// dataflow.op.<op>.<suffix> counter.
func eachOpCounter(in Input, suffix string, fn func(op string, n int64)) {
	for _, name := range slices.Sorted(maps.Keys(in.Metrics.Counters)) {
		op, ok := strings.CutPrefix(name, "dataflow.op.")
		if !ok {
			continue
		}
		if op, ok = strings.CutSuffix(op, "."+suffix); ok && in.Metrics.Counters[name] != 0 {
			fn(op, in.Metrics.Counters[name])
		}
	}
}

// quarantineHeavyOps flags operators whose quarantine rate crosses 25%
// — one finding per offender, ranked by rate (the paper's
// tagger-crashing-on-degenerate-pages story).
func quarantineHeavyOps(in Input) []Finding {
	var out []Finding
	eachOpCounter(in, "quarantined", func(op string, q int64) {
		inCount := in.Metrics.Counters["dataflow.op."+op+".in"]
		if inCount == 0 || ratio(q, inCount) < 0.25 {
			return
		}
		f := Finding{
			Rule:     "quarantine-heavy-op",
			Severity: Critical,
			Score:    ratio(q, inCount),
			Summary: fmt.Sprintf("operator %s quarantines %s of its records (%d of %d)",
				op, pct(q, inCount), q, inCount),
			Evidence: []string{
				fmt.Sprintf("dataflow.op.%s.quarantined=%d dataflow.op.%s.in=%d", op, q, op, inCount),
			},
		}
		if t := in.traceErrs()["quarantine"]; t > 0 {
			f.Evidence = append(f.Evidence,
				fmt.Sprintf("%d pinned traces carry quarantine lineage (see /traces?err=quarantine)", t))
		}
		out = append(out, f)
	})
	return out
}

// opPanics fires on any recovered operator panic: quarantined by the
// executor, but a panic is a bug, not data quality.
func opPanics(in Input) []Finding {
	var out []Finding
	eachOpCounter(in, "panics", func(op string, p int64) {
		out = append(out, Finding{
			Rule:     "op-panics",
			Severity: Critical,
			Score:    1,
			Summary:  fmt.Sprintf("operator %s panicked %d times (recovered and quarantined)", op, p),
			Evidence: []string{fmt.Sprintf("dataflow.op.%s.panics=%d", op, p)},
		})
	})
	return out
}

// fleetFaults reports the fleet supervisor's interventions as one
// finding — the fleet-level analogue of opPanics. While every crash was
// recovered from a checkpoint it is shard-crash-loop, a warning: the run
// survived, but something is panicking workers. Once a shard burned its
// recovery budget and was fenced (fencing only ever follows a crash) it
// is degraded-completion, critical: the corpus has known coverage holes
// in that shard's host-hash partition — loud, per the paper's
// silently-shrinking-corpus warning, never silent.
func fleetFaults(in Input) []Finding {
	crashes := in.Metrics.Counter("fleet.shard.crashes")
	if crashes == 0 {
		return nil
	}
	restarts := in.Metrics.Counter("fleet.shard.restarts")
	fenced := in.Metrics.Counter("fleet.shard.fenced")
	dropped := in.Metrics.Counter("fleet.mail.dropped")
	counters := fmt.Sprintf("fleet.shard.crashes=%d fleet.shard.restarts=%d fleet.shard.fenced=%d fleet.mail.dropped=%d",
		crashes, restarts, fenced, dropped)
	f := Finding{
		Rule:     "shard-crash-loop",
		Severity: Warning,
		Score:    ratio(crashes, crashes+5),
		Summary: fmt.Sprintf("fleet supervisor caught %d shard crash(es), all recovered by %d checkpoint restart(s)",
			crashes, restarts),
		Evidence: []string{counters},
	}
	if fenced > 0 {
		f = Finding{
			Rule:     "degraded-completion",
			Severity: Critical,
			Score:    1,
			Summary: fmt.Sprintf("run completed DEGRADED: %d host-hash partition(s) fenced after %d shard crash(es) and %d checkpoint restart(s), %d cross-shard discoveries dropped",
				fenced, crashes, restarts, dropped),
			Evidence: []string{counters,
				"corpus manifest carries `deg` footer lines enumerating the missing partitions"},
		}
	}
	if n := in.logTotal(evlog.Warn, "fleet.supervisor") + in.logTotal(evlog.Error, "fleet.supervisor"); n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("event log holds %d supervisor warnings and errors (see /logs?component=fleet.supervisor)", n))
	}
	return []Finding{f}
}
