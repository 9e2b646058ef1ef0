package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	"webtextie/internal/stats"
)

// inputSets is how many input sets one run measures. The trained system
// and the inputs are both drawn from the seed, and how fast one draw runs
// differs from the next by several percent — more than the run-to-run noise
// on any one of them. A run therefore sets up inputSets times, each from its
// own seed derived from -seed, gives each set an equal share of -seconds, and
// reports the mean over the sets of their median repeats. The set-ups are
// the ones setup_s is the median of, so this costs two extra warm-ups.
const inputSets = 3

// minRepeats is the fewest timed repeats per input set; a run goes past its
// -seconds budget rather than take a median over fewer.
const minRepeats = 2

// inputSeed derives the seed of one input set; distinct -seed values share
// no input set.
func inputSeed(seed uint64, set int) uint64 { return seed*inputSets + uint64(set) }

// sample is the cost of one repeat's timed region.
type sample struct {
	wall       float64 // seconds
	mallocs    float64
	allocBytes float64
	gcCPU      float64 // seconds
	totalCPU   float64
	gcCycles   float64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() (gcCPU, totalCPU, cycles float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64(), float64(gcSamples[2].Value.Uint64())
}

// timeRepeat runs one prepared repeat. The heap is collected first so each
// repeat starts from the same state, and the counters are read outside the
// timed region: ReadMemStats stops the world.
func timeRepeat(p prepared) (sample, outcome, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, cpu0, cyc0 := readGC()
	watch := startWatch()
	err := p.run()
	wall := watch.elapsed()
	runtime.ReadMemStats(&after)
	gc1, cpu1, cyc1 := readGC()
	if err != nil {
		return sample{}, outcome{}, err
	}
	out, err := p.outcome()
	return sample{
		wall:       wall.Seconds(),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		gcCPU:      gc1 - gc0,
		totalCPU:   cpu1 - cpu0,
		gcCycles:   cyc1 - cyc0,
	}, out, err
}

// sameOutputs is the per-repeat correctness check: a repeat must reproduce
// the reference repeat's outputs exactly, whatever its pillar setting and
// degree of parallelism.
func sameOutputs(ref, got outcome) error {
	if got.digest != ref.digest {
		return fmt.Errorf("output digest %s differs from the first repeat's %s", got.digest, ref.digest)
	}
	if got.items != ref.items || got.bytes != ref.bytes || got.failed != ref.failed {
		return fmt.Errorf("items/bytes/failed %d/%d/%d differ from the first repeat's %d/%d/%d",
			got.items, got.bytes, got.failed, ref.items, ref.bytes, ref.failed)
	}
	if ref.flow != nil && got.flow.sinkRecords != ref.flow.sinkRecords {
		return fmt.Errorf("%d sink records, the first repeat had %d", got.flow.sinkRecords, ref.flow.sinkRecords)
	}
	return nil
}

// endToEnd is one workload's untraced measurement: per input set, the
// warm-up repeat's outcome and the timed repeats.
type endToEnd struct {
	refs     []outcome
	setups   []float64
	samples  [][]sample
	attempts int // items over all timed repeats
}

// measure sets up each input set in turn and runs, on each, one warm-up
// repeat and timed repeats until the set's share of seconds has passed and
// minRepeats are in.
func measure(w *workload, seed uint64, sz sizes, dop int, seconds float64) (*endToEnd, error) {
	res := &endToEnd{}
	opts := w.own(dop)
	for set := 0; set < inputSets; set++ {
		runtime.GC() // the previous set's system is garbage by now
		watch := startWatch()
		e, err := setup(w, inputSeed(seed, set), sz, dop)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, watch.elapsed().Seconds())

		_, ref, err := timeRepeat(w.prepare(e, opts))
		if err != nil {
			return nil, fmt.Errorf("input set %d warm-up: %w", set, err)
		}
		ref = ref.light()
		var samples []sample
		watch = startWatch()
		for len(samples) < minRepeats || watch.elapsed().Seconds() < seconds/inputSets {
			s, out, err := timeRepeat(w.prepare(e, opts))
			if err == nil {
				err = sameOutputs(ref, out)
			}
			if err != nil {
				return nil, fmt.Errorf("input set %d repeat %d: %w", set, len(samples)+1, err)
			}
			samples = append(samples, s)
			res.attempts += out.items
		}
		res.refs = append(res.refs, ref)
		res.samples = append(res.samples, samples)
	}
	return res, nil
}

// metric is one reported number. Summary is set for metrics taken over
// repeats.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

// overSets reduces per-set repeat values to one summary. Median is the mean
// over the sets of each set's median. Spread is the quartile spread of the
// repeats each taken relative to its own set's median, so it measures how
// well a repeat repeats and not how much the sets differ; Min and Max are of
// the raw values.
func overSets(sets [][]float64) summary {
	var medians, relative, all []float64
	for _, vals := range sets {
		med := stats.Summarize(vals).Median
		medians = append(medians, med)
		for _, v := range vals {
			relative = append(relative, v/med)
			all = append(all, v)
		}
	}
	s := summarize(all)
	q1, q3 := quartiles(relative)
	s.Median = stats.Summarize(medians).Mean
	s.Spread = q3 - q1
	s.IQR = s.Spread * s.Median
	return s
}

func (r *endToEnd) metrics() map[string]metric {
	m := map[string]metric{}
	add := func(name, unit string, f func(s sample, ref outcome) float64) {
		sets := make([][]float64, len(r.samples))
		for i, samples := range r.samples {
			for _, s := range samples {
				sets[i] = append(sets[i], f(s, r.refs[i]))
			}
		}
		s := overSets(sets)
		m[name] = metric{Value: s.Median, Unit: unit, Summary: &s}
	}
	setups := summarize(r.setups)
	m["setup_s"] = metric{Value: setups.Median, Unit: "s", Summary: &setups}
	add("wall_s", "s", func(s sample, _ outcome) float64 { return s.wall })
	add("items_per_s", "items/s", func(s sample, ref outcome) float64 { return float64(ref.items) / s.wall })
	add("mb_per_s", "MB/s", func(s sample, ref outcome) float64 { return float64(ref.bytes) / 1e6 / s.wall })
	add("allocs_per_item", "count", func(s sample, ref outcome) float64 { return s.mallocs / float64(ref.items) })
	add("alloc_kb_per_item", "KB", func(s sample, ref outcome) float64 { return s.allocBytes / 1024 / float64(ref.items) })
	return m
}
