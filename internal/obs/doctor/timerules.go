package doctor

import (
	"fmt"
	"strconv"

	"webtextie/internal/obs/series"
)

// Time-aware rules: the fourth pillar (internal/obs/series) gives the
// doctor a virtual-time axis, so it can diagnose *trends* the final
// counters hide. A run that ends at a healthy 25% harvest rate may have
// spent its first half at 40% and its last at 5% — the paper's central
// pitfall is exactly that decay, and a point-in-time snapshot cannot see
// it. All four rules degrade to silence without the series pillar and
// require a minimum sample count before judging.

// timeMinSamples is the fewest per-cycle samples a trend rule will judge;
// below it, windows are too short to separate trend from noise.
const timeMinSamples = 8

// fmtRate renders a per-second rate with fixed precision so summaries
// stay byte-stable.
func fmtRate(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// harvestDecay fires when the harvest rate's late half is less than half
// its early half — the crawl started in dense territory and is digging
// into an increasingly irrelevant frontier. This is the temporal
// complement of harvestCollapse: it fires even when the cumulative rate
// still looks acceptable.
func harvestDecay(in Input) []Finding {
	rel := in.seriesPoints("crawler.classify.relevant")
	irr := in.seriesPoints("crawler.classify.irrelevant")
	n := len(rel)
	if len(irr) < n {
		n = len(irr)
	}
	if n < timeMinSamples {
		return nil
	}
	mid := n / 2
	earlyRel := rel[mid].V - rel[0].V
	earlyIrr := irr[mid].V - irr[0].V
	lateRel := rel[n-1].V - rel[mid].V
	lateIrr := irr[n-1].V - irr[mid].V
	earlyN, lateN := earlyRel+earlyIrr, lateRel+lateIrr
	// Each half must hold enough verdicts to judge, and the early half
	// must have been worth harvesting at all.
	if earlyN < 20 || lateN < 20 {
		return nil
	}
	early, late := earlyRel/earlyN, lateRel/lateN
	if early < 0.1 || late > 0.5*early {
		return nil
	}
	sev := Warning
	if late <= 0.25*early {
		sev = Critical
	}
	return []Finding{{
		Rule:     "harvest-decay",
		Severity: sev,
		Score:    1 - late/early,
		Summary: fmt.Sprintf("harvest rate decayed from %s (early half) to %s (late half)",
			pct(int64(earlyRel), int64(earlyN)), pct(int64(lateRel), int64(lateN))),
		Evidence: []string{
			fmt.Sprintf("early half: %d relevant of %d classified; late half: %d of %d",
				int64(earlyRel), int64(earlyN), int64(lateRel), int64(lateN)),
			fmt.Sprintf("series crawler.classify.{relevant,irrelevant}: %d samples over %dms of virtual time (see /timeseries)",
				n, rel[n-1].AtMs-rel[0].AtMs),
		},
	}}
}

// breakerOscillation fires when breaker openings are spread across many
// sampling windows: hosts are flapping — opening, recovering, reopening —
// rather than failing once. breakerStorm counts openings; this rule reads
// their shape in time.
func breakerOscillation(in Input) []Finding {
	pts := in.seriesPoints("crawler.breaker.opened")
	if len(pts) < timeMinSamples {
		return nil
	}
	windows := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].V > pts[i-1].V {
			windows++
		}
	}
	if windows < 3 {
		return nil
	}
	total := int64(pts[len(pts)-1].V - pts[0].V)
	return []Finding{{
		Rule:     "breaker-oscillation",
		Severity: Warning,
		Score:    ratio(int64(windows), int64(windows)+5),
		Summary: fmt.Sprintf("circuit breakers opened across %d distinct sampling windows (%d openings): hosts are flapping, not failing once",
			windows, total),
		Evidence: []string{
			fmt.Sprintf("series crawler.breaker.opened: %d samples, %d windows with fresh openings (see /timeseries)",
				len(pts), windows),
		},
	}}
}

// frontierStarvationTrend fires when the pending frontier is shrinking
// fast enough to empty within roughly twice the observed window — the
// crawl is about to end on starvation, not on its page budget. The
// frontierExhausted rule reports that it happened; this one sees it
// coming.
func frontierStarvationTrend(in Input) []Finding {
	pts := in.seriesPoints("crawler.frontier.pending")
	if len(pts) < timeMinSamples {
		return nil
	}
	w := pts[len(pts)-timeMinSamples:]
	last := w[len(w)-1]
	slope := series.Slope(w)
	if last.V <= 0 || slope >= 0 {
		return nil
	}
	spanSec := float64(w[len(w)-1].AtMs-w[0].AtMs) / 1000
	if spanSec <= 0 {
		return nil
	}
	etaSec := last.V / -slope
	if etaSec > 2*spanSec {
		return nil
	}
	return []Finding{{
		Rule:     "frontier-starvation-trend",
		Severity: Warning,
		Score:    1 / (1 + etaSec/spanSec),
		Summary: fmt.Sprintf("frontier pending is draining at %s URLs/s; %d left — projected empty in ~%ss of virtual time",
			fmtRate(-slope), int64(last.V), fmtRate(etaSec)),
		Evidence: []string{
			fmt.Sprintf("series crawler.frontier.pending: slope %s/s over the last %d samples (%ss window)",
				fmtRate(slope), timeMinSamples, fmtRate(spanSec)),
		},
	}}
}

// throughputCliff fires when fetch throughput fell off a cliff: the
// run's final quarter delivers under 30% of its peak quarter's pages per
// second. Breakers, rate limits, or retry churn are eating the crawl
// from the inside while the cumulative totals still grow.
func throughputCliff(in Input) []Finding {
	pts := in.seriesPoints("crawler.fetch.ok")
	if len(pts) < timeMinSamples {
		return nil
	}
	q := len(pts) / 4
	var rates [4]float64
	for k := 0; k < 4; k++ {
		from := pts[k*q]
		to := pts[len(pts)-1]
		if k < 3 {
			to = pts[(k+1)*q]
		}
		if dt := to.AtMs - from.AtMs; dt > 0 {
			rates[k] = (to.V - from.V) * 1000 / float64(dt)
		}
	}
	peak, peakIdx := rates[0], 0
	for k := 1; k < 4; k++ {
		if rates[k] > peak {
			peak, peakIdx = rates[k], k
		}
	}
	if peak <= 0 || peakIdx == 3 || rates[3] >= 0.3*peak {
		return nil
	}
	return []Finding{{
		Rule:     "throughput-cliff",
		Severity: Warning,
		Score:    1 - rates[3]/peak,
		Summary: fmt.Sprintf("fetch throughput fell from %s pages/s (quarter %d) to %s in the final quarter",
			fmtRate(peak), peakIdx+1, fmtRate(rates[3])),
		Evidence: []string{
			fmt.Sprintf("series crawler.fetch.ok quarter rates: %s %s %s %s pages/s (see /timeseries)",
				fmtRate(rates[0]), fmtRate(rates[1]), fmtRate(rates[2]), fmtRate(rates[3])),
		},
	}}
}
