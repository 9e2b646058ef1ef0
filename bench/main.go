// Command bench is the repository's benchmark: wall-clock throughput of the
// focused crawl and of the analysis flow on four workloads, and a traced
// pass that splits each workload's wall time by layer. README.md explains
// the workloads, the metrics and how they interact; BENCHMARK.json at the
// repository root names the metrics and their regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// outDir receives the result file and the span dumps unless -out says
// otherwise; it is git-ignored.
const outDir = "bench/out"

// specPath is where the metric names and bounds live, relative to the
// repository root the benchmark is run from.
const specPath = "BENCHMARK.json"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string // "0", "1" or "both"
	scale    string
	against  string
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload by name (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every input generator")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each workload's timed repeats run")
	fs.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, untraced; 1: the traced per-layer pass; both")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full or tiny")
	fs.StringVar(&o.against, "check-against", "", "previous result file to compare with, against the bounds in "+specPath)
	fs.StringVar(&o.outDir, "out", outDir, "directory for result.json and the span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var base *baseline
	if o.against != "" {
		var err error
		if base, err = loadBaseline(specPath, o.against); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if base != nil {
		ok, err := base.check(res, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
	}
	// The driver's contract: one workload, one mode, one JSON object last.
	if o.workload != "" && o.trace != "both" {
		wr := res.Workloads[0]
		m := wr.EndToEnd
		if o.trace == "1" {
			m = wr.PerLayer
		}
		line, err := json.Marshal(driverLine{Correct: true, Attempted: wr.Attempted, Failed: 0, Metrics: stripSummaries(m)})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// driverLine is the last line of a single-workload run. A run that fails a
// correctness check prints no such line and exits non-zero.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func stripSummaries(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// result is the machine-readable output, written to bench/out/result.json.
type result struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type meta struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

type workloadResult struct {
	Name string `json:"name"`
	// OutputDigests, Items and InputBytes have one entry per input set; a
	// traced pass alone has the first set only.
	OutputDigests []string `json:"output_digests"`
	Items         []int    `json:"items"`
	InputBytes    []int64  `json:"input_bytes"`
	// Attempted counts the items of every checked repeat; none may fail.
	Attempted int               `json:"attempted"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// maxDoP caps the goroutines doing work, so results from machines with
// more cores stay comparable with the 2–4 cores the sizes are tuned for.
const maxDoP = 4

func execute(o options, stdout io.Writer) (*result, error) {
	sz, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown -scale %q (full or tiny)", o.scale)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("unknown -trace %q (0, 1 or both)", o.trace)
	}
	selected := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown -workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	dop := min(runtime.NumCPU(), maxDoP)
	runtime.GOMAXPROCS(dop)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	res := &result{Meta: meta{GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: dop, GOGC: gogc, Seed: o.seed, Scale: o.scale, Seconds: o.seconds}}
	fmt.Fprintf(stdout, "webtextie bench: %s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d scale=%s seconds=%g\n",
		res.Meta.GoVersion, res.Meta.NProc, dop, gogc, o.seed, o.scale, o.seconds)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	for _, w := range selected {
		wr := workloadResult{Name: w.name}
		note := func(ref outcome) {
			wr.OutputDigests = append(wr.OutputDigests, ref.digest)
			wr.Items = append(wr.Items, ref.items)
			wr.InputBytes = append(wr.InputBytes, ref.bytes)
		}
		if o.trace != "1" {
			r, err := measure(w, o.seed, sz, dop, o.seconds)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			wr.EndToEnd, wr.Attempted = r.metrics(), r.attempts
			for _, ref := range r.refs {
				note(ref)
			}
		}
		if o.trace != "0" {
			// The traced pass runs on the first input set.
			e, err := setup(w, inputSeed(o.seed, 0), sz, dop)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			l, err := tracePass(w, e)
			if err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
			}
			wr.PerLayer = l.metrics()
			wr.Attempted += l.attempts
			if wr.OutputDigests == nil {
				note(l.ref)
			} else if wr.OutputDigests[0] != l.ref.digest {
				return nil, fmt.Errorf("%s: traced pass digest %s differs from the timed repeats' %s", w.name, l.ref.digest, wr.OutputDigests[0])
			}
			if err := writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".json"), l.spans); err != nil {
				return nil, err
			}
		}
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "\nresult written to %s\n", path)
	return res, nil
}

func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n%s: items=%v input_bytes=%v output_digests=%v\n",
		wr.Name, wr.Items, wr.InputBytes, wr.OutputDigests)
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "  %-20s %-8s %12s %12s %12s %8s %3s\n", "end-to-end", "unit", "value", "min", "max", "spread", "n")
		for _, s := range endToEndSpecs {
			m := wr.EndToEnd[s.Name]
			fmt.Fprintf(w, "  %-20s %-8s %12.4f %12.4f %12.4f %7.1f%% %3d\n",
				s.Name, m.Unit, m.Summary.Median, m.Summary.Min, m.Summary.Max, 100*m.Summary.Spread, m.Summary.N)
		}
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  %-24s %8s %10s %10s %10s %12s\n", "layer (traced pass)", "share", "us_p50", "us_p99", "MB/s", "allocs/call")
	for _, k := range kernelNames {
		get := func(suffix string) float64 { return wr.PerLayer[k+suffix].Value }
		if get(".share") == 0 {
			continue // not on this workload's path
		}
		fmt.Fprintf(w, "  %-24s %8.3f %10.1f %10.1f %10.1f %12.1f\n", k,
			get(".share"), get(".us_p50"), get(".us_p99"), get(".mb_per_s"), get(".allocs_per_call"))
	}
	for _, s := range derivedSpecs {
		if v := wr.PerLayer[s.Name].Value; v != 0 || s.Name == "failed_share" {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", s.Name, v, s.Unit)
		}
	}
}
