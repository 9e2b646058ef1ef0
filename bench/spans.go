package main

import (
	"encoding/json"
	"os"
	"runtime"
)

// kernel names one layer boundary the traced pass brackets.
type kernel int

// Crawl-path kernels in crawler.fetchOne order, then the flow-path ones.
const (
	kFetch kernel = iota
	kMime
	kBoiler
	kTokenizeHTML
	kRepair
	kBlocks
	kLangid
	kClassify
	kSplit
	kTokenize
	kPOS
	kLing
	kDict
	kCRF
	numKernels
)

var kernelNames = [numKernels]string{
	"synthweb.fetch", "mimetype.detect", "boiler.extract", "htmlkit.tokenize",
	"htmlkit.repair", "htmlkit.blocks", "langid.identify", "classify.prob_relevant",
	"nlp.split_sentences", "nlp.tokenize", "postag.tag", "ling.analyze",
	"dict.find", "crf.extract",
}

// probe is what a replay reports each kernel call to. begin and end nest.
type probe interface {
	begin(k kernel, item int)
	// end closes the innermost open call; bytes is the size of its input.
	end(bytes int)
}

// noProbe is the untraced replay: the denominator of trace.overhead_ratio.
type noProbe struct{}

func (noProbe) begin(kernel, int) {}
func (noProbe) end(int)           {}

// span is one kernel call. Times are nanoseconds since the pass began;
// Parent indexes the enclosing span, -1 at top level.
type span struct {
	Kernel kernel
	Parent int32
	Item   int32
	Bytes  int32
	Start  int64
	End    int64
}

// tracer keeps every span of a pass in memory.
type tracer struct {
	watch stopwatch
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{watch: startWatch()} }

func (t *tracer) begin(k kernel, item int) {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Kernel: k, Parent: parent, Item: int32(item),
		Start: int64(t.watch.elapsed())})
}

func (t *tracer) end(bytes int) {
	now := int64(t.watch.elapsed())
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
	t.spans[i].Bytes = int32(bytes)
}

// selfTimes returns each span's duration minus the durations of its direct
// children. Children run sequentially inside their parent, so the part of
// the parent's interval they cover is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// kernelStats aggregates one kernel's spans.
type kernelStats struct {
	Calls     int
	SelfNs    int64
	Bytes     int64
	TotalNs   int64
	durations []float64 // microseconds, inclusive of children
}

func aggregate(spans []span) [numKernels]kernelStats {
	var out [numKernels]kernelStats
	self := selfTimes(spans)
	for i, s := range spans {
		ks := &out[s.Kernel]
		ks.Calls++
		ks.SelfNs += self[i]
		ks.TotalNs += s.End - s.Start
		ks.Bytes += int64(s.Bytes)
		ks.durations = append(ks.durations, float64(s.End-s.Start)/1e3)
	}
	return out
}

// writeSpans dumps the pass as {name, start, end, parent, item} objects.
func writeSpans(path string, spans []span) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Item   int32  `json:"item"`
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = jsonSpan{kernelNames[s.Kernel], s.Start, s.End, s.Parent, s.Item}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allocProbe counts heap objects per kernel call. ReadMemStats stops the
// world and flushes the per-P allocation caches, which makes a per-call
// delta exact on a single goroutine but costs tens of microseconds — so it
// samples every stride-th item and runs as a pass of its own, never the
// timed one. A parent's count includes its children's.
type allocProbe struct {
	stride  int
	mallocs [numKernels]uint64
	calls   [numKernels]int
	open    []allocFrame
	ms      runtime.MemStats
}

type allocFrame struct {
	k       kernel
	sampled bool
	start   uint64
}

func (a *allocProbe) begin(k kernel, item int) {
	f := allocFrame{k: k, sampled: item%a.stride == 0}
	if f.sampled {
		runtime.ReadMemStats(&a.ms)
		f.start = a.ms.Mallocs
	}
	a.open = append(a.open, f)
}

func (a *allocProbe) end(int) {
	f := a.open[len(a.open)-1]
	a.open = a.open[:len(a.open)-1]
	if !f.sampled {
		return
	}
	runtime.ReadMemStats(&a.ms)
	a.mallocs[f.k] += a.ms.Mallocs - f.start
	a.calls[f.k]++
}

func (a *allocProbe) perCall(k kernel) float64 {
	if a.calls[k] == 0 {
		return 0
	}
	return float64(a.mallocs[k]) / float64(a.calls[k])
}
