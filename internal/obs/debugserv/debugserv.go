// Package debugserv is the opt-in live debug server: a stdlib-only HTTP
// endpoint exposing the process's metrics registry, the trace recorder's
// recent and pinned lineages, a caller-supplied progress snapshot, and
// net/http/pprof. Binaries enable it with -debug-addr; nothing is served
// unless the flag is set, and the server holds no state of its own — every
// request renders a fresh snapshot, so the handlers are safe while the
// crawl or dataflow is running.
package debugserv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
)

// Options wires the server to the process's observability surfaces. Any
// field may be nil; the corresponding endpoint reports that it is off.
type Options struct {
	// Set holds the live pillars: Metrics backs /metrics (text and JSON),
	// Trace backs /traces and /trace, Log backs /logs, Series backs
	// /timeseries, Prof backs /profile — and /doctor diagnoses a snapshot
	// of all that are attached.
	pillars.Set
	// Progress backs /progress: called per request, must be safe to call
	// concurrently with the workload, and its result must JSON-marshal.
	Progress func() any
}

// Handler builds the debug mux. Exposed separately from Start so tests can
// drive it with httptest and binaries can mount it wherever they like.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", o.index)
	mux.HandleFunc("/metrics", o.metrics)
	mux.HandleFunc("/traces", o.traces)
	mux.HandleFunc("/trace", o.traceByID)
	mux.HandleFunc("/logs", o.logs)
	mux.HandleFunc("/timeseries", o.timeseries)
	mux.HandleFunc("/profile", o.profile)
	mux.HandleFunc("/doctor", o.doctor)
	mux.HandleFunc("/progress", o.progress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr and serves the debug mux in a background
// goroutine. Returns once the listener is bound, so Addr is immediately
// valid (addr may use port 0).
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugserv: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(o)}}
	//lintx:ignore goroleak Serve returns when Server.Close closes the listener
	go func() {
		// ErrServerClosed after Close is the expected shutdown path.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

func (o Options) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	b.WriteString("debug server\n\n")
	b.WriteString("/metrics            metric registry (?format=json)\n")
	b.WriteString("/traces             recent+pinned traces (?url= &op= &err= &pinned=1 &limit= &format=text|json|chrome|summary)\n")
	b.WriteString("/trace?id=<hex>     one trace by ID\n")
	b.WriteString("/logs               event log (?component= &level= &msg= &trace= &limit= &format=text|json|logfmt)\n")
	b.WriteString("/timeseries         virtual-time metric series (?name= &width= &format=text|csv|json)\n")
	b.WriteString("/profile            wall-clock stage profile (?scope= &topk= &format=text|json)\n")
	b.WriteString("/doctor             ranked crawl diagnosis (?severity= &rule= &format=json)\n")
	b.WriteString("/progress           live workload progress (JSON)\n")
	b.WriteString("/debug/pprof/       runtime profiles\n")
	if o.Trace != nil {
		counts := o.Trace.Snapshot().ErrClassCounts()
		if len(counts) > 0 {
			b.WriteString("\nerror classes:\n")
			for _, c := range trace.SortedErrClasses(counts) {
				fmt.Fprintf(&b, "  %-20s %d\n", c, counts[c])
			}
		}
	}
	_, _ = w.Write([]byte(b.String()))
}

// checkFormat validates the format query parameter against a handler's
// whitelist. A present-but-unknown format is an error — falling through
// to the text rendering would silently ignore what the caller asked for.
func checkFormat(r *http.Request, allowed ...string) (string, error) {
	raw := r.URL.Query().Get("format")
	for _, a := range allowed {
		if raw == a {
			return raw, nil
		}
	}
	return "", fmt.Errorf("bad format %q (want %s)", raw, strings.Join(allowed[1:], "|"))
}

// parseLimit validates the limit query parameter (0 when absent). A
// present-but-unparsable limit is an error — ignoring it would silently
// return the unbounded result.
func parseLimit(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q (want a non-negative integer)", raw)
	}
	return n, nil
}

func (o Options) metrics(w http.ResponseWriter, r *http.Request) {
	if o.Metrics == nil {
		http.Error(w, "metrics off: no registry attached", http.StatusNotFound)
		return
	}
	format, err := checkFormat(r, "", "text", "json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := o.Metrics.Snapshot()
	if format == "json" {
		writeJSONBlob(w, func() ([]byte, error) { return snap.JSON() })
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(snap.Text()))
}

// parseFilter maps /traces query parameters onto a trace.Filter. Present
// but unparsable parameters are errors, same contract as parseLogFilter.
func parseFilter(r *http.Request) (trace.Filter, error) {
	q := r.URL.Query()
	f := trace.Filter{
		Key:      q.Get("url"),
		Op:       q.Get("op"),
		ErrClass: q.Get("err"),
	}
	if f.Key == "" {
		f.Key = q.Get("key")
	}
	switch v := q.Get("pinned"); v {
	case "1", "true":
		f.PinnedOnly = true
	case "", "0", "false":
	default:
		return f, fmt.Errorf("bad pinned %q (want 1|true|0|false)", v)
	}
	n, err := parseLimit(r)
	if err != nil {
		return f, err
	}
	f.Limit = n
	return f, nil
}

func (o Options) traces(w http.ResponseWriter, r *http.Request) {
	if o.Trace == nil {
		http.Error(w, "tracing off: no recorder attached", http.StatusNotFound)
		return
	}
	f, err := parseFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format, err := checkFormat(r, "", "text", "json", "chrome", "summary")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := o.Trace.Snapshot().Filter(f)
	switch format {
	case "json":
		writeJSONBlob(w, s.JSON)
	case "chrome":
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		writeJSONBlob(w, s.Chrome)
	case "summary":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.Summary()))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.Text()))
	}
}

func (o Options) traceByID(w http.ResponseWriter, r *http.Request) {
	if o.Trace == nil {
		http.Error(w, "tracing off: no recorder attached", http.StatusNotFound)
		return
	}
	id, err := trace.ParseID(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
		return
	}
	format, err := checkFormat(r, "", "text", "json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := o.Trace.Snapshot()
	t := s.Find(id)
	if t == nil {
		http.Error(w, "trace not retained", http.StatusNotFound)
		return
	}
	one := &trace.Snapshot{StartSeq: s.StartSeq, Traces: []*trace.Trace{t}}
	if format == "json" {
		writeJSONBlob(w, one.JSON)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(one.Text()))
}

// parseLogFilter maps /logs query parameters onto an evlog.Filter. A
// level parameter that is present but unparsable is an error — falling
// through to MinLevel=Debug would silently return the full log.
func parseLogFilter(r *http.Request) (evlog.Filter, error) {
	q := r.URL.Query()
	f := evlog.Filter{
		Component: q.Get("component"),
		Msg:       q.Get("msg"),
	}
	if raw := q.Get("level"); raw != "" {
		lv, ok := evlog.ParseLevel(raw)
		if !ok {
			return f, fmt.Errorf("bad level %q (want debug|info|warn|error)", raw)
		}
		f.MinLevel = lv
	}
	if raw := q.Get("trace"); raw != "" {
		id, err := trace.ParseID(raw)
		if err != nil {
			return f, fmt.Errorf("bad trace %q: %v", raw, err)
		}
		f.Trace = uint64(id)
	}
	n, err := parseLimit(r)
	if err != nil {
		return f, err
	}
	f.Limit = n
	return f, nil
}

func (o Options) logs(w http.ResponseWriter, r *http.Request) {
	if o.Log == nil {
		http.Error(w, "logging off: no sink attached", http.StatusNotFound)
		return
	}
	f, err := parseLogFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format, err := checkFormat(r, "", "text", "json", "logfmt")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := o.Log.Snapshot().Filter(f)
	switch format {
	case "json":
		writeJSONBlob(w, s.JSON)
	case "logfmt":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.Logfmt()))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.Text()))
	}
}

func (o Options) doctor(w http.ResponseWriter, r *http.Request) {
	if o.Set == (pillars.Set{}) {
		http.Error(w, "doctor off: no observability surfaces attached", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	minSev, rule := doctor.Note, q.Get("rule")
	if raw := q.Get("severity"); raw != "" {
		sv, ok := doctor.ParseSeverity(raw)
		if !ok {
			http.Error(w, fmt.Sprintf("bad severity %q (want note|warning|critical)", raw), http.StatusBadRequest)
			return
		}
		minSev = sv
	}
	format, err := checkFormat(r, "", "text", "json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep := doctor.Diagnose(doctor.Input{Snapshot: o.Set.Snapshot()})
	if minSev != doctor.Note || rule != "" {
		rep = rep.Filter(minSev, rule)
	}
	if format == "json" {
		writeJSONBlob(w, rep.JSON)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(rep.Text()))
}

// timeseries serves the virtual-time series pillar: every sampled metric
// series with its sparkline and trend numbers, or its points as CSV or
// JSON.
func (o Options) timeseries(w http.ResponseWriter, r *http.Request) {
	if o.Series == nil {
		http.Error(w, "timeseries off: no recorder attached", http.StatusNotFound)
		return
	}
	format, err := checkFormat(r, "", "text", "csv", "json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	width := 32
	if raw := q.Get("width"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("bad width %q (want a positive integer)", raw), http.StatusBadRequest)
			return
		}
		width = n
	}
	s := o.Series.Snapshot().Narrow(q.Get("name"))
	switch format {
	case "json":
		writeJSONBlob(w, s.JSON)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = w.Write([]byte(s.CSV()))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.TextWidth(width)))
	}
}

// profile serves the stage-profiler pillar: the cost-sorted wall-time
// table, or the snapshot as JSON.
func (o Options) profile(w http.ResponseWriter, r *http.Request) {
	if o.Prof == nil {
		http.Error(w, "profiling off: no profiler attached", http.StatusNotFound)
		return
	}
	format, err := checkFormat(r, "", "text", "json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	topk := 20
	if raw := q.Get("topk"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad topk %q (want a non-negative integer; 0 = all)", raw), http.StatusBadRequest)
			return
		}
		topk = n
	}
	s := o.Prof.Snapshot().Narrow(q.Get("scope"))
	if format == "json" {
		writeJSONBlob(w, func() ([]byte, error) { return json.MarshalIndent(s, "", "  ") })
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s.Text(topk)))
}

func (o Options) progress(w http.ResponseWriter, r *http.Request) {
	if o.Progress == nil {
		http.Error(w, "progress off: no source attached", http.StatusNotFound)
		return
	}
	writeJSONBlob(w, func() ([]byte, error) {
		return json.MarshalIndent(o.Progress(), "", "  ")
	})
}

func writeJSONBlob(w http.ResponseWriter, render func() ([]byte, error)) {
	blob, err := render()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
	if len(blob) > 0 && blob[len(blob)-1] != '\n' {
		_, _ = w.Write([]byte("\n"))
	}
}
