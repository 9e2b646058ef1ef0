// Fault injection: the synthetic web's model of the real web's
// pathologies — dead hosts, throttling hosts, latency spikes, transient
// fetch errors, and truncated transfers. The paper's crawl fought all of
// these for 11 weeks (§4.1); a reproduction that only ever serves healthy
// pages cannot exercise the retry, backoff, and circuit-breaker machinery
// a web-scale system needs.
//
// Every fault decision is a pure function of (config, URL, attempt#):
// fetching the same URL at the same attempt number always yields the same
// outcome, so whole-crawl chaos experiments stay bit-reproducible, and a
// "transient" failure genuinely clears once the attempt counter passes the
// URL's deterministic clearing point.
package synthweb

import (
	"errors"
	"strconv"

	"webtextie/internal/rng"
)

// ErrFetchFailed is returned for injected transient failures (timeouts,
// 5xx). Retrying eventually succeeds.
var ErrFetchFailed = errors.New("synthweb: fetch failed (injected)")

// ErrHostDown is returned for every attempt against a persistently dead
// host. Retrying never succeeds; callers should trip a circuit breaker.
var ErrHostDown = errors.New("synthweb: host down (injected)")

// ErrRateLimited is returned by throttling hosts (HTTP 429). The
// FetchInfo carries the deterministic retry-after; honoring it succeeds.
var ErrRateLimited = errors.New("synthweb: rate limited (injected)")

// ErrTruncated is returned when the transfer was cut off mid-body. The
// partial page accompanies the error; a retry re-reads the full body.
var ErrTruncated = errors.New("synthweb: body truncated (injected)")

// FetchInfo is the transport metadata of one fetch attempt.
type FetchInfo struct {
	// LatencyMs is extra virtual latency injected by a slow host, on top
	// of the crawler's base fetch cost.
	LatencyMs int
	// RetryAfterMs is the throttle window a rate-limited response asks the
	// caller to wait (only set alongside ErrRateLimited).
	RetryAfterMs int
}

// HostFaultProfile is a host's deterministic fault assignment.
type HostFaultProfile struct {
	// Dead hosts fail every attempt with ErrHostDown.
	Dead bool
	// Slow hosts add slowLatencyMs of virtual latency per fetch.
	Slow bool
	// RateLimited hosts reject each URL's first attempts with
	// ErrRateLimited before serving it.
	RateLimited bool
}

// The fault model's fixed magnitudes.
const (
	// transientMaxAttempts bounds how many attempts a flaky URL fails
	// before clearing.
	transientMaxAttempts = 3
	// slowLatencyMs is a slow host's virtual latency per fetch.
	slowLatencyMs = 2000
	// retryAfterMs is the throttle window a rate-limited response asks for.
	retryAfterMs = 1500
)

// HostFaults returns a host's fault profile — a pure function of
// (config seed, host name), so the assignment survives restarts.
func (w *Web) HostFaults(host string) HostFaultProfile {
	r := rng.Keyed(w.cfg.Seed, "fault/host/", host)
	return HostFaultProfile{
		Dead:        r.Bool(w.cfg.DeadHostShare),
		Slow:        r.Bool(w.cfg.SlowHostShare),
		RateLimited: r.Bool(w.cfg.RateLimitShare),
	}
}

// transientFailsThrough returns the number of leading attempts a URL fails
// with ErrFetchFailed: 0 for healthy URLs, k in [1, transientMaxAttempts]
// for flaky ones. The first draw reuses the pre-fault-model "fail/<url>"
// stream, so the attempt-0 failure set is unchanged for existing seeds.
func (w *Web) transientFailsThrough(rawurl string) int {
	if w.cfg.FailureRate <= 0 {
		return 0
	}
	r := rng.Keyed(w.cfg.Seed, "fail/", rawurl)
	if !r.Bool(w.cfg.FailureRate) {
		return 0
	}
	return 1 + r.Intn(transientMaxAttempts)
}

// rateLimitFailsThrough returns how many leading attempts a URL on a
// throttling host is rejected (1 or 2), deterministic per URL.
func (w *Web) rateLimitFailsThrough(rawurl string) int {
	r := rng.Keyed(w.cfg.Seed, "fault/rate/", rawurl)
	return 1 + r.Intn(2)
}

// truncated reports whether one specific attempt's transfer is cut off,
// and at which fraction of the body.
func (w *Web) truncated(rawurl string, attempt int) (bool, float64) {
	if w.cfg.TruncateRate <= 0 {
		return false, 0
	}
	r := rng.Keyed(w.cfg.Seed, "fault/trunc/", rawurl, "/", strconv.Itoa(attempt))
	if !r.Bool(w.cfg.TruncateRate) {
		return false, 0
	}
	// Cut somewhere in the middle-to-late body: [0.3, 0.9).
	return true, 0.3 + 0.6*r.Float64()
}

// FetchAttempt serves one fetch attempt of a URL. The outcome — success,
// typed failure, injected latency — is a pure function of
// (config, URL, attempt), so retry loops behave identically across runs:
//
//   - dead hosts fail every attempt with ErrHostDown;
//   - rate-limited hosts reject each URL's first 1-2 attempts with
//     ErrRateLimited and a deterministic FetchInfo.RetryAfterMs;
//   - flaky URLs (FailureRate) fail their first k attempts with
//     ErrFetchFailed, k drawn per URL in [1, transientMaxAttempts];
//   - individual attempts may return ErrTruncated with a partial body;
//   - slow hosts succeed but report FetchInfo.LatencyMs.
//
// Unknown URLs return ErrNotFound on every attempt (retrying is futile).
func (w *Web) FetchAttempt(rawurl string, attempt int) (*Page, FetchInfo, error) {
	var info FetchInfo
	host, _, err := SplitURL(rawurl)
	if err != nil {
		return nil, info, err
	}
	h, ok := w.byName[host]
	if !ok {
		return nil, info, ErrNotFound
	}
	hf := w.HostFaults(h.Name)
	if hf.Dead {
		return nil, info, ErrHostDown
	}
	if hf.Slow {
		info.LatencyMs = slowLatencyMs
	}
	if hf.RateLimited && attempt < w.rateLimitFailsThrough(rawurl) {
		info.RetryAfterMs = retryAfterMs
		return nil, info, ErrRateLimited
	}
	if attempt < w.transientFailsThrough(rawurl) {
		return nil, info, ErrFetchFailed
	}
	page, err := w.page(rawurl, false)
	if err != nil {
		return nil, info, err
	}
	if cut, frac := w.truncated(rawurl, attempt); cut {
		partial := *page
		partial.Body = page.Body[:int(float64(len(page.Body))*frac)]
		return &partial, info, ErrTruncated
	}
	return page, info, nil
}
