// Package cliobs is the shared observability surface of the webtextie
// binaries: one Register call gives a command the same -trace, -log,
// -series, -prof, -doctor, and -debug-addr flags as every other command,
// so flag parity across crawl, analyze, and experiments holds by
// construction instead of by convention (and is checked by a table test
// over Names). Each -X-out file holds the same bytes the debug server's
// matching endpoint serves.
//
// The package renders summaries and reports as strings for the caller
// to print — commands own stdout; cliobs never writes to it.
package cliobs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"webtextie/internal/obs"
	"webtextie/internal/obs/debugserv"
	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
)

// Flags holds the registered observability flags of one command.
type Flags struct {
	TraceOn   *bool
	TraceOut  *string
	LogOn     *bool
	LogOut    *string
	DoctorOn  *bool
	SeriesOn  *bool
	SeriesOut *string
	ProfOn    *bool
	ProfOut   *string
	DebugAddr *string
}

// profTopK is the number of rows in the end-of-run profile table.
const profTopK = 10

// Register installs the shared observability flags on a FlagSet.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		TraceOn:   fs.Bool("trace", false, "attach the deterministic lineage trace recorder"),
		TraceOut:  fs.String("trace-out", "", "write the end-of-run trace export (text) to FILE (implies -trace)"),
		LogOn:     fs.Bool("log", false, "attach the deterministic structured event log"),
		LogOut:    fs.String("log-out", "", "write the end-of-run event-log export (logfmt) to FILE (implies -log)"),
		DoctorOn:  fs.Bool("doctor", false, "print the cross-pillar crawl-doctor diagnosis at exit (implies -trace, -log, -series, and -prof)"),
		SeriesOn:  fs.Bool("series", false, "attach the virtual-time metric series recorder"),
		SeriesOut: fs.String("series-out", "", "write the end-of-run series export (CSV) to FILE (implies -series)"),
		ProfOn:    fs.Bool("prof", false, "attach the wall-clock stage profiler"),
		ProfOut:   fs.String("prof-out", "", "write the end-of-run stage profile (JSON) to FILE (implies -prof)"),
		DebugAddr: fs.String("debug-addr", "", "serve the live debug endpoints (/metrics /traces /logs /doctor /timeseries /profile /progress /debug/pprof) on HOST:PORT (implies -trace, -log, -series, and -prof)"),
	}
}

// Setup holds the live pillars a command built from its flags: Metrics is
// always the process registry, and each of the other four handles is nil
// when its flags were off.
type Setup struct {
	pillars.Set
	f *Flags
}

// Setup builds the trace recorder, event-log sink, series recorder, and
// profiler the flags ask for, all seeded/configured for determinism. The
// sink's derived evlog.records counters land in the process metric
// registry. -doctor and -debug-addr attach every pillar: the doctor's
// rules read all five, so the exit report and /doctor see the same
// evidence.
func (f *Flags) Setup(seed uint64) *Setup {
	s := &Setup{Set: pillars.Set{Metrics: obs.Default()}, f: f}
	all := *f.DoctorOn || *f.DebugAddr != ""
	if all || *f.TraceOn || *f.TraceOut != "" {
		s.Trace = trace.NewRecorder(trace.DefaultConfig(seed))
	}
	if all || *f.LogOn || *f.LogOut != "" {
		s.Log = evlog.NewSink(evlog.DefaultConfig(seed)).WithMetrics(obs.Default())
	}
	if all || *f.SeriesOn || *f.SeriesOut != "" {
		s.Series = series.New(series.DefaultConfig())
	}
	if all || *f.ProfOn || *f.ProfOut != "" {
		s.Prof = prof.New(prof.Config{})
	}
	return s
}

// Serve starts the live debug server when -debug-addr is set, wired to
// this setup's pillars. Returns the bound address ("" when the flag is
// off) for the command to print.
func (s *Setup) Serve(progress func() any) (string, error) {
	if *s.f.DebugAddr == "" {
		return "", nil
	}
	srv, err := debugserv.Start(*s.f.DebugAddr, debugserv.Options{Set: s.Set, Progress: progress})
	if err != nil {
		return "", err
	}
	return srv.Addr(), nil
}

// Finish writes the -trace-out / -log-out / -series-out / -prof-out
// export files from snap and returns the end-of-run summary
// (trace tallies, event-log tallies, series sparklines, the profile
// table, and the -doctor report), ready for the command to print. Empty
// when every observability flag was off; a nil pillar in snap reads as
// "flag off". A command whose pillars are this setup's own passes
// s.Snapshot(); the sharded crawl passes its merged per-shard snapshot.
//
// The -doctor diagnosis reads diag, or snap itself when diag is nil. A
// supervised sharded crawl uses diag to diagnose the crawl and
// supervision pillars together without letting supervision events into
// the crawl export files (which must stay byte-identical to an
// unsupervised run's).
func (s *Setup) Finish(snap pillars.Snapshot, diag *doctor.Input) (string, error) {
	traceSnap, logSnap, seriesSnap, profSnap := snap.Traces, snap.Logs, snap.Series, snap.Profile
	var b strings.Builder
	if traceSnap != nil {
		counts := traceSnap.ErrClassCounts()
		fmt.Fprintf(&b, "traces: %d retained", len(traceSnap.Traces))
		for _, cl := range trace.SortedErrClasses(counts) {
			fmt.Fprintf(&b, ", %s=%d", cl, counts[cl])
		}
		b.WriteByte('\n')
		if *s.f.TraceOut != "" {
			if err := os.WriteFile(*s.f.TraceOut, []byte(traceSnap.Text()), 0o644); err != nil {
				return b.String(), err
			}
			fmt.Fprintf(&b, "trace export (text) written to %s\n", *s.f.TraceOut)
		}
	}
	if logSnap != nil {
		fmt.Fprintf(&b, "event log: %d records retained (%d emitted", len(logSnap.Records), logSnap.Stats.Emitted)
		levels := logSnap.LevelCounts()
		for _, lv := range []evlog.Level{evlog.Debug, evlog.Info, evlog.Warn, evlog.Error} {
			if n := levels[lv.String()]; n > 0 {
				fmt.Fprintf(&b, ", %s=%d", lv, n)
			}
		}
		b.WriteString(")\n")
		if *s.f.LogOut != "" {
			if err := os.WriteFile(*s.f.LogOut, []byte(logSnap.Logfmt()), 0o644); err != nil {
				return b.String(), err
			}
			fmt.Fprintf(&b, "event-log export (logfmt) written to %s\n", *s.f.LogOut)
		}
	}
	if seriesSnap != nil {
		var samples int64
		for _, sd := range seriesSnap.Series {
			samples += sd.Total
		}
		fmt.Fprintf(&b, "series: %d series, %d samples on the virtual clock\n", len(seriesSnap.Series), samples)
		for _, line := range strings.Split(strings.TrimSuffix(seriesSnap.Text(), "\n"), "\n") {
			if line != "" {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		if *s.f.SeriesOut != "" {
			if err := os.WriteFile(*s.f.SeriesOut, []byte(seriesSnap.CSV()), 0o644); err != nil {
				return b.String(), err
			}
			fmt.Fprintf(&b, "series export (CSV) written to %s\n", *s.f.SeriesOut)
		}
	}
	if profSnap != nil {
		b.WriteString("profile: stages by wall-clock cost\n")
		for _, line := range strings.Split(strings.TrimSuffix(profSnap.Text(profTopK), "\n"), "\n") {
			if line != "" {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		if *s.f.ProfOut != "" {
			blob, err := json.MarshalIndent(profSnap, "", "  ")
			if err != nil {
				return b.String(), err
			}
			if err := os.WriteFile(*s.f.ProfOut, blob, 0o644); err != nil {
				return b.String(), err
			}
			fmt.Fprintf(&b, "profile export (JSON) written to %s\n", *s.f.ProfOut)
		}
	}
	if *s.f.DoctorOn {
		if diag == nil {
			diag = &doctor.Input{Snapshot: snap}
		}
		rep := doctor.Diagnose(*diag)
		b.WriteByte('\n')
		b.WriteString(rep.Text())
	}
	return b.String(), nil
}
