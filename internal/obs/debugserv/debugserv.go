// Package debugserv is the opt-in live debug server: a stdlib-only HTTP
// endpoint serving each observability pillar's one rendering — the same
// bytes the matching CLI flag writes at exit — plus a caller-supplied
// progress snapshot and net/http/pprof. Binaries enable it with
// -debug-addr; nothing is served unless the flag is set, and the server
// holds no state of its own — every request renders a fresh snapshot, so
// the handlers are safe while the crawl or dataflow is running.
package debugserv

import (
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strings"

	"webtextie/internal/obs/doctor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/trace"
)

// Options wires the server to the process's observability surfaces. Any
// field may be nil; the corresponding endpoint reports that it is off.
type Options struct {
	// Set holds the live pillars: Metrics backs /metrics, Trace backs
	// /traces, Log backs /logs, Series backs /timeseries, Prof backs
	// /profile — and /doctor diagnoses a snapshot of all that are
	// attached.
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
	for _, e := range o.exports() {
		mux.Handle(e.path, e)
	}
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
	w.Header().Set("Content-Type", textPlain)
	var b strings.Builder
	b.WriteString("debug server\n\n")
	b.WriteString("/metrics            metric registry (the -metrics block)\n")
	b.WriteString("/traces             recent+pinned traces, -trace-out text (?err=CLASS)\n")
	b.WriteString("/logs               event log, -log-out logfmt (?component= &level=)\n")
	b.WriteString("/timeseries         virtual-time metric series, -series-out CSV\n")
	b.WriteString("/profile            wall-clock stage profile, -prof-out JSON\n")
	b.WriteString("/doctor             ranked crawl diagnosis, the -doctor report\n")
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

const textPlain = "text/plain; charset=utf-8"

// export is one pillar endpoint: it serves the bytes the matching CLI
// flag writes at exit, narrowed only by the query parameters the
// doctor's evidence lines cite. Any other parameter is a 400, never a
// silently ignored request.
type export struct {
	path, contentType string
	// off reports that the pillar is not attached: the endpoint is a 404.
	off bool
	// params lists the query parameters render reads.
	params []string
	// render returns the body; an error names a malformed parameter
	// value.
	render func(q url.Values) ([]byte, error)
}

func (o Options) exports() []export {
	return []export{
		{"/metrics", textPlain, o.Metrics == nil, nil, func(url.Values) ([]byte, error) {
			return []byte(o.Metrics.Snapshot().Text()), nil
		}},
		{"/traces", textPlain, o.Trace == nil, []string{"err"}, o.traces},
		{"/logs", textPlain, o.Log == nil, []string{"component", "level"}, o.logs},
		{"/timeseries", "text/csv; charset=utf-8", o.Series == nil, nil, func(url.Values) ([]byte, error) {
			return []byte(o.Series.Snapshot().CSV()), nil
		}},
		{"/profile", "application/json", o.Prof == nil, nil, func(url.Values) ([]byte, error) {
			return json.MarshalIndent(o.Prof.Snapshot(), "", "  ")
		}},
		{"/doctor", textPlain, o.Set == (pillars.Set{}), nil, func(url.Values) ([]byte, error) {
			return []byte(doctor.Diagnose(doctor.Input{Snapshot: o.Set.Snapshot()}).Text()), nil
		}},
	}
}

func (e export) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e.off {
		http.Error(w, e.path+" off: pillar not attached", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(e.params, k) {
			http.Error(w, fmt.Sprintf("%s reads no query parameter %q (it reads %v)", e.path, k, e.params), http.StatusBadRequest)
			return
		}
	}
	body, err := e.render(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", e.contentType)
	_, _ = w.Write(body)
}

// traces renders the trace export, keeping only the traces that recorded
// the ?err= error class when one is given.
func (o Options) traces(q url.Values) ([]byte, error) {
	s := o.Trace.Snapshot()
	if class := q.Get("err"); class != "" {
		var kept []*trace.Trace
		for _, t := range s.Traces {
			if t.HasErrClass(class) {
				kept = append(kept, t)
			}
		}
		s.Traces = kept
	}
	return []byte(s.Text()), nil
}

// logs renders the event-log export narrowed by ?component= (substring)
// and ?level= (minimum). An unparsable level is an error — falling
// through to Debug would silently return the full log.
func (o Options) logs(q url.Values) ([]byte, error) {
	f := evlog.Filter{Component: q.Get("component")}
	if raw := q.Get("level"); raw != "" {
		lv, ok := evlog.ParseLevel(raw)
		if !ok {
			return nil, fmt.Errorf("bad level %q (want debug|info|warn|error)", raw)
		}
		f.MinLevel = lv
	}
	return []byte(o.Log.Snapshot().Filter(f).Logfmt()), nil
}

func (o Options) progress(w http.ResponseWriter, r *http.Request) {
	if o.Progress == nil {
		http.Error(w, "progress off: no source attached", http.StatusNotFound)
		return
	}
	blob, err := json.MarshalIndent(o.Progress(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(blob, '\n'))
}
