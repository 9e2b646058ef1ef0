package cliobs

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"webtextie/internal/obs/debugserv"
)

// sharedNames lists the shared observability flag names every binary
// exposes — the parity contract the cmd table test checks against each
// command's FlagSet.
func sharedNames() []string {
	return []string{"trace", "trace-out", "log", "log-out", "doctor",
		"series", "series-out", "prof", "prof-out", "debug-addr"}
}

// TestNamesMatchRegister pins the parity contract: the flag set Register
// installs is exactly sharedNames(), no more, no less.
func TestNamesMatchRegister(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = true })
	want := sharedNames()
	if len(got) != len(want) {
		t.Errorf("Register installed %d flags, sharedNames() lists %d", len(got), len(want))
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("sharedNames() lists %q but Register did not install it", name)
		}
		delete(got, name)
	}
	for name := range got {
		t.Errorf("Register installed %q but sharedNames() does not list it", name)
	}
}

// TestFlagParityAcrossCommands is the cross-binary table test: every
// command must obtain the shared observability flags through
// cliobs.Register (parity by construction) and must not register any of
// the shared names itself (no shadowing, no drift).
func TestFlagParityAcrossCommands(t *testing.T) {
	shared := map[string]bool{}
	for _, n := range sharedNames() {
		shared[n] = true
	}
	for _, cmd := range []string{"crawl", "analyze", "experiments"} {
		t.Run(cmd, func(t *testing.T) {
			src := filepath.Join("..", "..", "..", "cmd", cmd, "main.go")
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatalf("reading %s: %v", src, err)
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, src, data, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", src, err)
			}
			registered := false
			var shadowed []string
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pkg.Name == "cliobs" && sel.Sel.Name == "Register" {
					registered = true
				}
				// Any flag.Xxx("name", ...) call whose first argument is a
				// shared observability flag name is shadowing.
				if pkg.Name == "flag" && len(call.Args) > 0 {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil && shared[name] {
							shadowed = append(shadowed, name)
						}
					}
				}
				return true
			})
			if !registered {
				t.Errorf("cmd/%s does not call cliobs.Register — observability flags would drift", cmd)
			}
			if len(shadowed) > 0 {
				sort.Strings(shadowed)
				t.Errorf("cmd/%s registers shared observability flags itself: %v", cmd, shadowed)
			}
		})
	}
}

// TestSetupGating tables which flags bring up which pillar.
func TestSetupGating(t *testing.T) {
	cases := []struct {
		name                                       string
		args                                       []string
		wantTraces, wantLogs, wantSeries, wantProf bool
	}{
		{"none", nil, false, false, false, false},
		{"trace", []string{"-trace"}, true, false, false, false},
		{"trace-out", []string{"-trace-out", "x"}, true, false, false, false},
		{"log", []string{"-log"}, false, true, false, false},
		{"log-out", []string{"-log-out", "x"}, false, true, false, false},
		{"doctor", []string{"-doctor"}, true, true, true, true},
		{"series", []string{"-series"}, false, false, true, false},
		{"series-out", []string{"-series-out", "x"}, false, false, true, false},
		{"debug-addr", []string{"-debug-addr", "127.0.0.1:0"}, true, true, true, true},
		{"both", []string{"-trace", "-log"}, true, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			s := f.Setup(7)
			if got := s.Trace != nil; got != tc.wantTraces {
				t.Errorf("Traces attached = %v, want %v", got, tc.wantTraces)
			}
			if got := s.Log != nil; got != tc.wantLogs {
				t.Errorf("Logs attached = %v, want %v", got, tc.wantLogs)
			}
			if got := s.Series != nil; got != tc.wantSeries {
				t.Errorf("Series attached = %v, want %v", got, tc.wantSeries)
			}
			if got := s.Prof != nil; got != tc.wantProf {
				t.Errorf("Prof attached = %v, want %v", got, tc.wantProf)
			}
		})
	}
}

// TestExitExportsMatchEndpoints: on one snapshot, each export file a
// flag writes at exit holds the bytes the debug server's matching
// endpoint serves, and the -doctor report that ends the summary is the
// /doctor body.
func TestExitExportsMatchEndpoints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"/traces":     filepath.Join(dir, "run.trace"),
		"/logs":       filepath.Join(dir, "run.logfmt"),
		"/timeseries": filepath.Join(dir, "run.csv"),
		"/profile":    filepath.Join(dir, "run.prof.json"),
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-doctor", "-trace-out", files["/traces"], "-log-out", files["/logs"],
		"-series-out", files["/timeseries"], "-prof-out", files["/profile"]}); err != nil {
		t.Fatal(err)
	}
	s := f.Setup(7)
	tc := s.Trace.Start("crawler.url", "http://h1/p0", 0)
	tc.Error("retry_exhausted", 10)
	tc.Finish(20)
	s.Log.Logger("crawler.frontier").Warn("frontier.exhausted", 30)
	for i := 0; i < 10; i++ {
		s.Series.Observe("crawler.fetch.ok", int64(i)*1000, float64(i*10))
	}
	s.Prof.Scope("crawl.cycle").Enter().Exit()

	summary, err := s.Finish(s.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := debugserv.Handler(debugserv.Options{Set: s.Set})
	body := func(path string) string {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 200 {
			t.Fatalf("%s: status %d", path, rw.Code)
		}
		return rw.Body.String()
	}
	for _, path := range []string{"/traces", "/logs", "/timeseries", "/profile"} {
		data, err := os.ReadFile(files[path])
		if err != nil {
			t.Fatal(err)
		}
		if got := body(path); got != string(data) {
			t.Errorf("%s serves\n%s\nbut its export file holds\n%s", path, got, data)
		}
	}
	doctor := body("/doctor")
	if !strings.Contains(doctor, "frontier-exhausted") {
		t.Fatalf("/doctor missed the log-pillar finding:\n%s", doctor)
	}
	if !strings.HasSuffix(summary, "\n"+doctor) {
		t.Errorf("-doctor report differs from /doctor:\n%s\nvs\n%s", summary, doctor)
	}
}

// TestFinishExportsAndDoctor runs the full Finish path: log export file,
// summary tallies, and the doctor report appended under -doctor.
func TestFinishExportsAndDoctor(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.logfmt")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-log-out", logPath, "-doctor"}); err != nil {
		t.Fatal(err)
	}
	s := f.Setup(7)
	lg := s.Log.Logger("cliobs.test")
	lg.Info("test.event", 1)
	lg.Warn("test.warn", 2)

	summary, err := s.Finish(s.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("log export not written: %v", err)
	}
	if !strings.Contains(string(data), "msg=test.event") {
		t.Errorf("log export missing emitted record:\n%s", data)
	}
	if !strings.Contains(summary, "event log: 2 records retained") {
		t.Errorf("summary missing event-log tally:\n%s", summary)
	}
	if !strings.Contains(summary, "crawl doctor:") {
		t.Errorf("summary missing doctor report:\n%s", summary)
	}
}

// TestFinishSeriesExports runs the series half of the Finish path: the
// CSV export file plus the sparkline summary block.
func TestFinishSeriesExports(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "run.csv")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-series-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	s := f.Setup(7)
	for i := 0; i < 10; i++ {
		s.Series.Observe("crawler.fetch.ok", int64(i)*1000, float64(i*10))
	}

	summary, err := s.Finish(s.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "series: 1 series, 10 samples on the virtual clock") {
		t.Errorf("summary missing series tally:\n%s", summary)
	}
	if !strings.Contains(summary, "▁") || !strings.Contains(summary, "█") {
		t.Errorf("summary missing sparkline glyphs:\n%s", summary)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("CSV export not written: %v", err)
	}
	if !strings.HasPrefix(string(csvData), "series,at_ms,value\ncrawler.fetch.ok,0,0\n") {
		t.Errorf("CSV export malformed:\n%s", csvData)
	}
}
