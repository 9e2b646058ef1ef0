package synthweb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

func faultyWeb(t testing.TB, mutate func(*Config)) *Web {
	t.Helper()
	lex := textgen.NewLexicon(rng.New(1), textgen.LexiconSizes{Genes: 300, Drugs: 100, Diseases: 100}, 0.75)
	gen := textgen.NewGenerator(2, lex, textgen.DefaultProfiles())
	cfg := DefaultConfig()
	cfg.NumHosts = 60
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg, gen)
}

// TestTransientFailureClearsAfterK: a flaky URL fails attempts 0..k-1 and
// then succeeds forever — the attempt-aware replacement for the old
// permanent per-URL failure.
func TestTransientFailureClearsAfterK(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.FailureRate = 0.4 })
	flaky, cleared := 0, 0
	for _, h := range w.Hosts {
		for idx := 0; idx < min(h.Pages, 5); idx++ {
			u := PageURL(h.Name, idx)
			k := w.transientFailsThrough(u)
			if k == 0 {
				if _, _, err := w.FetchAttempt(u, 0); err != nil {
					t.Fatalf("healthy URL %s failed attempt 0: %v", u, err)
				}
				continue
			}
			flaky++
			if k > transientMaxAttempts {
				t.Fatalf("%s clears after %d attempts, cap is %d", u, k, transientMaxAttempts)
			}
			for a := 0; a < k; a++ {
				if _, _, err := w.FetchAttempt(u, a); !errors.Is(err, ErrFetchFailed) {
					t.Fatalf("%s attempt %d: err=%v, want ErrFetchFailed", u, a, err)
				}
			}
			if _, _, err := w.FetchAttempt(u, k); err != nil {
				t.Fatalf("%s attempt %d should clear: %v", u, k, err)
			}
			cleared++
		}
	}
	if flaky == 0 || cleared != flaky {
		t.Fatalf("flaky=%d cleared=%d — fault model not exercised", flaky, cleared)
	}
}

// TestAttemptZeroMatchesLegacyFetch: Fetch is FetchAttempt at attempt 0,
// so retry-free callers see exactly the old FailureRate semantics.
func TestAttemptZeroMatchesLegacyFetch(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.FailureRate = 0.3 })
	for _, h := range w.Hosts[:20] {
		u := PageURL(h.Name, 1)
		_, errA := w.Fetch(u)
		_, _, errB := w.FetchAttempt(u, 0)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Fetch err=%v, FetchAttempt(0) err=%v", u, errA, errB)
		}
	}
}

// TestDeadHostsPermanent: dead hosts fail every attempt with ErrHostDown.
func TestDeadHostsPermanent(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.DeadHostShare = 0.3 })
	dead := 0
	for _, h := range w.Hosts {
		if !w.HostFaults(h.Name).Dead {
			continue
		}
		dead++
		u := PageURL(h.Name, 0)
		for _, attempt := range []int{0, 1, 7, 100} {
			if _, _, err := w.FetchAttempt(u, attempt); !errors.Is(err, ErrHostDown) {
				t.Fatalf("dead host %s attempt %d: err=%v", h.Name, attempt, err)
			}
		}
	}
	if dead == 0 {
		t.Fatal("no dead hosts drawn at share 0.3")
	}
}

// TestRateLimitedClearsWithRetryAfter: throttled URLs carry a retry-after
// and succeed within two retries.
func TestRateLimitedClearsWithRetryAfter(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.RateLimitShare = 0.5 })
	limited := 0
	for _, h := range w.Hosts {
		if !w.HostFaults(h.Name).RateLimited {
			continue
		}
		u := PageURL(h.Name, 1)
		_, info, err := w.FetchAttempt(u, 0)
		if !errors.Is(err, ErrRateLimited) {
			t.Fatalf("throttled host %s attempt 0: err=%v", h.Name, err)
		}
		if info.RetryAfterMs != retryAfterMs {
			t.Fatalf("retry-after = %d, want %d", info.RetryAfterMs, retryAfterMs)
		}
		if _, _, err := w.FetchAttempt(u, 2); err != nil {
			t.Fatalf("throttled URL %s still failing at attempt 2: %v", u, err)
		}
		limited++
	}
	if limited == 0 {
		t.Fatal("no rate-limited hosts drawn at share 0.5")
	}
}

// TestSlowHostLatency: slow hosts succeed but report injected latency.
func TestSlowHostLatency(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.SlowHostShare = 0.4 })
	slow := 0
	for _, h := range w.Hosts {
		u := PageURL(h.Name, 0)
		_, info, err := w.FetchAttempt(u, 0)
		if err != nil {
			continue
		}
		want := 0
		if w.HostFaults(h.Name).Slow {
			want = slowLatencyMs
			slow++
		}
		if info.LatencyMs != want {
			t.Fatalf("host %s latency = %d, want %d", h.Name, info.LatencyMs, want)
		}
	}
	if slow == 0 {
		t.Fatal("no slow hosts drawn at share 0.4")
	}
}

// TestTruncatedBodies: truncated attempts return the typed error plus a
// strict prefix of the true body; a later attempt can read it whole.
func TestTruncatedBodies(t *testing.T) {
	w := faultyWeb(t, func(c *Config) { c.TruncateRate = 0.5 })
	cut := 0
	for _, h := range w.Hosts[:30] {
		u := PageURL(h.Name, 1)
		full, err := w.PageContent(u)
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 0; attempt < 6; attempt++ {
			page, _, err := w.FetchAttempt(u, attempt)
			if err == nil {
				if !bytes.Equal(page.Body, full.Body) {
					t.Fatalf("%s clean attempt served wrong body", u)
				}
				continue
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s attempt %d: err=%v", u, attempt, err)
			}
			cut++
			if len(page.Body) >= len(full.Body) || !bytes.HasPrefix(full.Body, page.Body) {
				t.Fatalf("%s truncated body is not a strict prefix (%d of %d bytes)",
					u, len(page.Body), len(full.Body))
			}
		}
	}
	if cut == 0 {
		t.Fatal("no truncated attempts at rate 0.5")
	}
}

// TestFaultModelDeterministic: the full fault surface is a pure function
// of (config, URL, attempt) — two webs with the same config agree on
// every outcome.
func TestFaultModelDeterministic(t *testing.T) {
	mutate := func(c *Config) {
		c.FailureRate = 0.3
		c.DeadHostShare = 0.1
		c.SlowHostShare = 0.2
		c.RateLimitShare = 0.2
		c.TruncateRate = 0.1
	}
	a, b := faultyWeb(t, mutate), faultyWeb(t, mutate)
	for _, h := range a.Hosts[:25] {
		for attempt := 0; attempt < 5; attempt++ {
			u := PageURL(h.Name, 1)
			pa, ia, ea := a.FetchAttempt(u, attempt)
			pb, ib, eb := b.FetchAttempt(u, attempt)
			if fmt.Sprint(ea) != fmt.Sprint(eb) || ia != ib {
				t.Fatalf("%s attempt %d diverged: (%v,%v) vs (%v,%v)", u, attempt, ia, ea, ib, eb)
			}
			if (pa == nil) != (pb == nil) {
				t.Fatalf("%s attempt %d page presence diverged", u, attempt)
			}
			if pa != nil && !bytes.Equal(pa.Body, pb.Body) {
				t.Fatalf("%s attempt %d bodies diverged", u, attempt)
			}
		}
	}
}
