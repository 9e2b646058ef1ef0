package doctor

import (
	"fmt"
	"sort"
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
	shardCrashLoop,
	degradedCompletion,
	errorBurst,
	logShedding,
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
			fmt.Sprintf("event log holds %d frontier decisions (see /logs?component=crawler.frontier)", n))
	}
	return []Finding{f}
}

// frontierExhausted notes that the crawl stopped because it ran out of
// URLs rather than hitting its page budget.
func frontierExhausted(in Input) []Finding {
	if in.Logs == nil || in.logTotal(evlog.Warn, "crawler.frontier") == 0 {
		return nil
	}
	found := false
	for _, r := range in.Logs.Records {
		if r.Component == "crawler.frontier" && r.Msg == "frontier.exhausted" {
			found = true
			break
		}
	}
	if !found {
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

// quarantineHeavyOps scans per-operator dataflow counters for operators
// whose quarantine rate crosses 25% — one finding per offender, ranked
// by rate (the paper's tagger-crashing-on-degenerate-pages story).
func quarantineHeavyOps(in Input) []Finding {
	names := make([]string, 0, len(in.Metrics.Counters))
	for n := range in.Metrics.Counters {
		if strings.HasPrefix(n, "dataflow.op.") && strings.HasSuffix(n, ".quarantined") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []Finding
	for _, n := range names {
		q := in.Metrics.Counters[n]
		op := strings.TrimSuffix(strings.TrimPrefix(n, "dataflow.op."), ".quarantined")
		inCount := in.Metrics.Counters["dataflow.op."+op+".in"]
		if q == 0 || inCount == 0 || ratio(q, inCount) < 0.25 {
			continue
		}
		f := Finding{
			Rule:     "quarantine-heavy-op",
			Severity: Critical,
			Score:    ratio(q, inCount),
			Summary: fmt.Sprintf("operator %s quarantines %s of its records (%d of %d)",
				op, pct(q, inCount), q, inCount),
			Evidence: []string{
				fmt.Sprintf("%s=%d dataflow.op.%s.in=%d", n, q, op, inCount),
			},
		}
		if t := in.traceErrs()["quarantine"]; t > 0 {
			f.Evidence = append(f.Evidence,
				fmt.Sprintf("%d pinned traces carry quarantine lineage (see /traces?err=quarantine)", t))
		}
		out = append(out, f)
	}
	return out
}

// opPanics fires on any recovered operator panic: quarantined by the
// executor, but a panic is a bug, not data quality.
func opPanics(in Input) []Finding {
	names := make([]string, 0, len(in.Metrics.Counters))
	for n := range in.Metrics.Counters {
		if strings.HasPrefix(n, "dataflow.op.") && strings.HasSuffix(n, ".panics") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []Finding
	for _, n := range names {
		p := in.Metrics.Counters[n]
		if p == 0 {
			continue
		}
		op := strings.TrimSuffix(strings.TrimPrefix(n, "dataflow.op."), ".panics")
		out = append(out, Finding{
			Rule:     "op-panics",
			Severity: Critical,
			Score:    1,
			Summary:  fmt.Sprintf("operator %s panicked %d times (recovered and quarantined)", op, p),
			Evidence: []string{fmt.Sprintf("%s=%d", n, p)},
		})
	}
	return out
}

// shardCrashLoop fires when the fleet supervisor recovered shard
// crashes: the run survived, but something is panicking workers — the
// fleet-level analogue of opPanics. Critical once any shard burned its
// whole recovery budget (a poisoned partition, not a transient fault).
func shardCrashLoop(in Input) []Finding {
	crashes := in.Metrics.Counter("fleet.shard.crashes")
	if crashes == 0 {
		return nil
	}
	restarts := in.Metrics.Counter("fleet.shard.restarts")
	fenced := in.Metrics.Counter("fleet.shard.fenced")
	sev := Warning
	if fenced > 0 {
		sev = Critical
	}
	f := Finding{
		Rule:     "shard-crash-loop",
		Severity: sev,
		Score:    ratio(crashes, crashes+5),
		Summary: fmt.Sprintf("fleet supervisor caught %d shard crash(es): %d checkpoint restart(s), %d shard(s) fenced",
			crashes, restarts, fenced),
		Evidence: []string{
			fmt.Sprintf("fleet.shard.crashes=%d fleet.shard.restarts=%d fleet.shard.fenced=%d",
				crashes, restarts, fenced),
		},
	}
	if n := in.logTotal(evlog.Warn, "fleet.supervisor"); n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("event log holds %d supervisor warnings (see /logs?component=fleet.supervisor)", n))
	}
	return []Finding{f}
}

// degradedCompletion fires when the run finished without part of its
// host-hash space: shards fenced after exhausting their recovery budget
// mean the corpus has known coverage holes — loud, per the paper's
// silently-shrinking-corpus warning, never silent.
func degradedCompletion(in Input) []Finding {
	fenced := in.Metrics.Counter("fleet.shard.fenced")
	if fenced == 0 {
		return nil
	}
	dropped := in.Metrics.Counter("fleet.mail.dropped")
	f := Finding{
		Rule:     "degraded-completion",
		Severity: Critical,
		Score:    1,
		Summary: fmt.Sprintf("run completed DEGRADED: %d host-hash partition(s) fenced, %d cross-shard discoveries dropped",
			fenced, dropped),
		Evidence: []string{
			fmt.Sprintf("fleet.shard.fenced=%d fleet.mail.dropped=%d", fenced, dropped),
			"corpus manifest carries `deg` footer lines enumerating the missing partitions",
		},
	}
	if n := in.logTotal(evlog.Error, "fleet.supervisor"); n > 0 {
		f.Evidence = append(f.Evidence,
			fmt.Sprintf("event log holds %d fencing records (see /logs?component=fleet.supervisor&level=error)", n))
	}
	return []Finding{f}
}

// errorBurst reports components that logged error-level records — the
// log pillar's own alarm, independent of metrics coverage.
func errorBurst(in Input) []Finding {
	if in.Logs == nil {
		return nil
	}
	var parts []string
	var total uint64
	keys := make([]string, 0, len(in.Logs.Totals))
	for k := range in.Logs.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if comp, ok := strings.CutPrefix(k, "error "); ok {
			parts = append(parts, fmt.Sprintf("%s=%d", comp, in.Logs.Totals[k]))
			total += in.Logs.Totals[k]
		}
	}
	if total == 0 {
		return nil
	}
	return []Finding{{
		Rule:     "error-burst",
		Severity: Warning,
		Score:    ratio(int64(total), int64(total)+10),
		Summary:  fmt.Sprintf("%d error-level log records emitted", total),
		Evidence: []string{"per component: " + strings.Join(parts, " ")},
	}}
}

// logShedding notes when retention shed Warn/Error records: the
// diagnosis above may be built on a partial log.
func logShedding(in Input) []Finding {
	if in.Logs == nil || in.Logs.Stats.PinDropped == 0 {
		return nil
	}
	return []Finding{{
		Rule:     "log-shedding",
		Severity: Note,
		Score:    1,
		Summary: fmt.Sprintf("%d warn/error log records were shed by retention; the event-log evidence is partial",
			in.Logs.Stats.PinDropped),
		Evidence: []string{fmt.Sprintf("evlog stats: %+v", in.Logs.Stats)},
	}}
}
