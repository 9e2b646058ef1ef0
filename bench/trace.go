package main

import (
	"fmt"
	"runtime"
	"sort"

	"webtextie/internal/stats"
	"webtextie/internal/synthweb"
)

// metricSpec names one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name, Unit, Better string
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"items_per_s", "items/s", "higher"},
	{"mb_per_s", "MB/s", "higher"},
	{"wall_s", "s", "lower"},
	{"allocs_per_item", "count", "lower"},
	{"alloc_kb_per_item", "KB", "lower"},
}

// derivedSpecs are the per-layer ratios and exact counts that are not a
// property of one kernel span.
var derivedSpecs = []metricSpec{
	{"crawler.residual_share", "ratio", "lower"},
	{"crawler.pages_per_s_ex_synthweb", "1/s", "higher"},
	{"crawler.filter_yield", "ratio", "higher"},
	{"crawler.harvest_rate", "ratio", "higher"},
	{"shard.dop_speedup", "ratio", "higher"},
	{"shard.rounds", "count", "lower"},
	{"dataflow.framework_tax", "ratio", "lower"},
	{"dataflow.dop_speedup", "ratio", "higher"},
	{"dataflow.hops_per_doc", "count", "lower"},
	{"core.ops_glue_share", "ratio", "lower"},
	{"postag.failed_sentences", "count", "lower"},
	{"obs.on_off_ratio", "ratio", "lower"},
	{"obs.allocs_on_off_ratio", "ratio", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"gc.cycles", "count", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"failed_share", "ratio", "lower"},
}

// perLayerSpecs lists every per-layer metric: five per kernel span, then
// the derived ones. A workload reports 0 for a layer not on its path.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	for _, k := range kernelNames {
		out = append(out,
			metricSpec{k + ".share", "ratio", "lower"},
			metricSpec{k + ".us_p50", "us", "lower"},
			metricSpec{k + ".us_p99", "us", "lower"},
			metricSpec{k + ".mb_per_s", "MB/s", "higher"},
			metricSpec{k + ".allocs_per_call", "count", "lower"})
	}
	return append(out, derivedSpecs...)
}

// allocStride is how many items the allocation pass skips between the ones
// it brackets with ReadMemStats.
const allocStride = 8

// layered is one workload's traced pass.
type layered struct {
	ref      outcome
	values   map[string]float64
	spans    []span
	attempts int // items over all checked repeats
}

func (l *layered) metrics() map[string]metric {
	m := map[string]metric{}
	for _, s := range perLayerSpecs() {
		m[s.Name] = metric{Value: l.values[s.Name], Unit: s.Unit}
	}
	return m
}

func meanOf(ss []sample, f func(sample) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = f(s)
	}
	return stats.Summarize(vals).Mean
}

// tracePass produces a workload's per-layer numbers in three steps: the
// workload itself with the pillars on and off (order alternated), the same
// work on one core with the pillars off — the untraced wall every share is
// a share of — and then the replays that split that wall by layer.
func tracePass(w *workload, e *env) (*layered, error) {
	l := &layered{values: map[string]float64{}}
	v := l.values
	own := w.own(e.dop)

	var ref *outcome
	repeat := func(o runOpts) (sample, outcome, error) {
		s, out, err := timeRepeat(w.prepare(e, o))
		if err != nil {
			return s, out, err
		}
		if ref == nil {
			light := out.light()
			ref, l.ref = &light, light
		} else if err := sameOutputs(*ref, out); err != nil {
			return s, out, fmt.Errorf("pillars %t, dop %d: %w", o.observed, o.dop, err)
		}
		l.attempts += out.items
		return s, out, nil
	}

	var on, off []sample
	var last outcome
	for _, observed := range []bool{true, false, false, true} {
		s, out, err := repeat(runOpts{observed: observed, dop: own.dop})
		if err != nil {
			return nil, err
		}
		if observed {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
		last = out
	}
	wall := func(s sample) float64 { return s.wall }
	v["obs.on_off_ratio"] = meanOf(on, wall) / meanOf(off, wall)
	v["obs.allocs_on_off_ratio"] = meanOf(on, func(s sample) float64 { return s.mallocs }) /
		meanOf(off, func(s sample) float64 { return s.mallocs })
	ownSamples := off
	if w.observed {
		ownSamples = on
	}
	v["gc.cpu_share"] = meanOf(ownSamples, func(s sample) float64 { return s.gcCPU }) /
		meanOf(ownSamples, func(s sample) float64 { return s.totalCPU })
	v["gc.cycles"] = meanOf(ownSamples, func(s sample) float64 { return s.gcCycles })

	// Everything from here on runs on one core, so that a wall time is a
	// sum of its parts: the collector's work lands inside the spans that
	// caused it instead of on an idle second core, and an executor with one
	// worker per operator cannot overlap its operators. wall1 is the
	// workload itself measured that way, pillars off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var one []sample
	for range 2 {
		s, _, err := repeat(runOpts{dop: 1})
		if err != nil {
			return nil, err
		}
		one = append(one, s)
	}
	wall1 := meanOf(one, wall)
	speedup := 0.0
	if w.parallel {
		speedup = wall1 / meanOf(off, wall)
	}

	items := float64(last.items)
	var kernelNs int64
	var err error
	if last.crawl != nil {
		v["shard.dop_speedup"] = speedup
		v["failed_share"] = float64(last.failed) / float64(last.failed+int64(last.items))
		kernelNs, err = l.crawlLayers(w, e, last, wall1)
	} else {
		v["dataflow.dop_speedup"] = speedup
		v["failed_share"] = float64(last.failed) / items
		kernelNs, err = l.flowLayers(w, e, last, wall1)
	}
	if err != nil {
		return nil, err
	}
	v["trace.coverage"] = float64(kernelNs) / 1e9 / wall1
	return l, nil
}

// replays runs one replay three ways — untraced, with spans, and with the
// allocation probe — and fills in the kernel metrics. It returns the total
// self time of all kernel spans.
func (l *layered) replays(run func(probe) error, wall1 float64) (int64, error) {
	timed := func(p probe) (float64, error) {
		runtime.GC()
		watch := startWatch()
		err := run(p)
		return watch.elapsed().Seconds(), err
	}
	plain, err := timed(noProbe{})
	if err != nil {
		return 0, err
	}
	tr := newTracer()
	traced, err := timed(tr)
	if err != nil {
		return 0, err
	}
	ap := &allocProbe{stride: allocStride}
	if err := run(ap); err != nil {
		return 0, err
	}
	l.spans = tr.spans
	l.values["trace.overhead_ratio"] = traced / plain

	var total int64
	for k, ks := range aggregate(tr.spans) {
		if ks.Calls == 0 {
			continue
		}
		name := kernelNames[k]
		total += ks.SelfNs
		sort.Float64s(ks.durations)
		l.values[name+".share"] = float64(ks.SelfNs) / 1e9 / wall1
		l.values[name+".us_p50"] = percentile(ks.durations, 0.5)
		l.values[name+".us_p99"] = percentile(ks.durations, highPercentile(ks.Calls, 0.99))
		l.values[name+".mb_per_s"] = float64(ks.Bytes) / 1e6 / (float64(ks.TotalNs) / 1e9)
		l.values[name+".allocs_per_call"] = ap.perCall(kernel(k))
	}
	return total, nil
}

// noFaults returns the web without its fault model. Page bodies do not
// depend on the fault rates, so the replay fetches the same pages the
// crawl did without drawing its transient failures again.
func noFaults(c synthweb.Config) synthweb.Config {
	c.FailureRate, c.DeadHostShare, c.SlowHostShare, c.RateLimitShare, c.TruncateRate = 0, 0, 0, 0, 0
	return c
}

func (l *layered) crawlLayers(w *workload, e *env, out outcome, wall1 float64) (int64, error) {
	v := l.values
	st := out.crawl.stats
	urls := out.crawl.fetched()
	if len(urls) != st.Fetched {
		return 0, fmt.Errorf("crawl db lists %d fetched URLs, stats say %d", len(urls), st.Fetched)
	}
	rp := newCrawlReplay(synthweb.New(noFaults(w.web(e)), e.newGenerator()), e.sys.Set.Classifier.Clone())
	kernelNs, err := l.replays(func(p probe) error {
		got, err := rp.run(urls, p)
		if err == nil && got != verdictsOf(st) {
			err = fmt.Errorf("replay verdicts %+v, the crawl's were %+v", got, verdictsOf(st))
		}
		return err
	}, wall1)
	// The replays ran with the crawl's result still reachable, so the
	// collector saw about the heap it sees at the end of the crawl; on a
	// near-empty heap it runs twenty times as often and the same kernels
	// measure half again as slow.
	runtime.KeepAlive(out.crawl.result)
	if err != nil {
		return 0, err
	}
	v["crawler.residual_share"] = 1 - float64(kernelNs)/1e9/wall1
	v["crawler.pages_per_s_ex_synthweb"] = float64(st.Fetched) / (wall1 * (1 - v["synthweb.fetch.share"]))
	v["crawler.filter_yield"] = float64(st.Classified()) / float64(st.Fetched)
	v["crawler.harvest_rate"] = st.HarvestRateDocs()
	v["shard.rounds"] = float64(out.crawl.rounds)
	return kernelNs, nil
}

func (l *layered) flowLayers(w *workload, e *env, out outcome, wall1 float64) (int64, error) {
	v := l.values
	plan := w.plan(e.sys.Registry())
	visits := make([]visit, 0, int(out.flow.hops))
	runtime.GC()
	watch := startWatch()
	sink, hops, failures, err := runBare(plan, e.docs, func(vi visit) { visits = append(visits, vi) })
	bare := watch.elapsed().Seconds()
	if err != nil {
		return 0, err
	}
	if got := flowResult(e, sink, hops); got.digest != out.digest || hops != out.flow.hops || failures != out.failed {
		return 0, fmt.Errorf("bare composition: digest %s, %d hops, %d failures; Execute: %s, %d, %d",
			got.digest, hops, failures, out.digest, out.flow.hops, out.failed)
	}
	fr := newFlowReplay(e.sys, e.docs)
	kernelNs, err := l.replays(func(p probe) error { fr.run(visits, p); return nil }, wall1)
	if err != nil {
		return 0, err
	}
	v["dataflow.framework_tax"] = wall1 / bare
	v["dataflow.hops_per_doc"] = float64(out.flow.hops) / float64(out.items)
	v["core.ops_glue_share"] = 1 - float64(kernelNs)/1e9/bare
	v["postag.failed_sentences"] = float64(out.flow.posFailed)
	return kernelNs, nil
}
