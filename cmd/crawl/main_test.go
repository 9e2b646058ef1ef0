package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCrawl compiles this package's binary into a temp dir so the test
// can drive it exactly as an operator would.
func buildCrawl(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "crawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCrawl(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("crawl %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestCheckpointResumeWithLogCLI covers the CLI contract the package doc
// makes: a crawl interrupted with -checkpoint and continued with -resume
// exports the same event-log bytes as an uninterrupted run. Regression:
// the resume invocation must not emit seed-generation records into the
// sink before WithLog loads the checkpoint's log snapshot — that used to
// panic with "evlog: Load into a used sink".
func TestCheckpointResumeWithLogCLI(t *testing.T) {
	bin := buildCrawl(t)
	dir := t.TempDir()
	common := []string{"-hosts", "40", "-pages", "120", "-seed", "3", "-terms", "20"}

	fullLog := filepath.Join(dir, "full.logfmt")
	runCrawl(t, bin, append(common, "-log-out", fullLog)...)

	cpFile := filepath.Join(dir, "crawl.ckpt")
	partLog := filepath.Join(dir, "part.logfmt")
	out := runCrawl(t, bin, append(common,
		"-checkpoint", cpFile, "-checkpoint-cycles", "3", "-log-out", partLog)...)
	if !strings.Contains(out, "checkpoint after") {
		t.Fatalf("checkpoint run did not checkpoint:\n%s", out)
	}

	resumedLog := filepath.Join(dir, "resumed.logfmt")
	out = runCrawl(t, bin, append(common,
		"-resume", cpFile, "-log-out", resumedLog)...)
	if !strings.Contains(out, "resumed from") {
		t.Fatalf("resume run did not resume:\n%s", out)
	}

	full, err := os.ReadFile(fullLog)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("uninterrupted run exported no log records")
	}
	if !bytes.Equal(full, resumed) {
		t.Fatalf("resumed log export differs from uninterrupted run:\n--- full\n%s\n--- resumed\n%s",
			full, resumed)
	}
}

// TestReportWithNothingFetched: every host is dead, so the crawl fetches
// no page and the report's filter shares have a zero denominator — they
// must print as 0.0%, not NaN. Breakers are off: with them on, every
// open host's queue is deferred and re-generated for tens of thousands of
// cycles before its retries run out, and the report is the same.
func TestReportWithNothingFetched(t *testing.T) {
	bin := buildCrawl(t)
	out := runCrawl(t, bin, "-hosts", "20", "-pages", "50", "-terms", "40", "-dead-hosts", "1",
		"-breaker-failures", "0")
	if !strings.Contains(out, "fetched:            0 pages") {
		t.Fatalf("expected a crawl that fetches nothing:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("report prints NaN:\n%s", out)
	}
	if !strings.Contains(out, "MIME 0.0%, language 0.0%, length 0.0%") {
		t.Errorf("filter shares of an empty crawl should read 0.0%%:\n%s", out)
	}
}

// TestFencedFleetDoctor: a supervised fleet that fences one shard gets
// one fleet-fault finding, degraded-completion, carrying the whole
// supervision story, and shard-cost-skew judges the live shards only —
// the fenced shard's clock stopped at its barrier checkpoint.
func TestFencedFleetDoctor(t *testing.T) {
	bin := buildCrawl(t)
	out := runCrawl(t, bin, "-hosts", "60", "-pages", "600", "-shards", "4",
		"-shard-crash-rate", "0.3", "-shard-crash-max-attempts", "5", "-shard-recovery-budget", "1", "-doctor")
	_, report, ok := strings.Cut(out, "crawl doctor:")
	if !ok {
		t.Fatalf("no doctor report:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED: partition") {
		t.Fatalf("expected a fenced shard:\n%s", out)
	}
	for _, want := range []string{
		"critical degraded-completion",
		"fleet.shard.restarts=", "fleet.shard.fenced=1 fleet.mail.dropped=",
		"corpus manifest carries `deg` footer lines",
		"(see /logs?component=fleet.supervisor)",
		"warning  shard-cost-skew", ": fenced",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("doctor report lacks %q:\n%s", want, report)
		}
	}
	for _, absent := range []string{"shard-crash-loop", "error-burst"} {
		if strings.Contains(report, absent) {
			t.Errorf("doctor report repeats the fencing as %s:\n%s", absent, report)
		}
	}
}
