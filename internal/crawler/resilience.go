// Resilience: the crawler's response to the synthetic web's fault model
// (synthweb/faults.go). Transient failures are retried with exponential
// backoff and deterministic jitter on the virtual clock; rate limits honor
// the server's retry-after; hosts that fail repeatedly trip a per-host
// circuit breaker (closed -> open -> half-open probe -> closed) so a dead
// host costs the crawl a bounded number of probes instead of a full retry
// budget per URL. Every delay is derived from (config, URL, attempt), so
// chaos crawls stay bit-reproducible.

package crawler

import (
	"errors"
	"fmt"
	"strconv"

	"webtextie/internal/crawldb"
	"webtextie/internal/obs"
	"webtextie/internal/obs/trace"
	"webtextie/internal/synthweb"
)

// breaker state machine values.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breaker is one host's circuit breaker.
type breaker struct {
	// fails counts consecutive breaker-relevant failures while closed.
	fails int
	// state is brClosed, brOpen, or brHalfOpen.
	state int
	// openUntil is the virtual time an open breaker admits a probe.
	openUntil int64
}

// BreakerState is the JSON-encodable form of one host's breaker, exported
// for checkpoints.
type BreakerState struct {
	Fails       int    `json:"fails"`
	State       string `json:"state"`
	OpenUntilMs int64  `json:"open_until_ms,omitempty"`
}

var breakerStateNames = map[int]string{brClosed: "closed", brOpen: "open", brHalfOpen: "halfopen"}

func (b *breaker) export() BreakerState {
	return BreakerState{Fails: b.fails, State: breakerStateNames[b.state], OpenUntilMs: b.openUntil}
}

func importBreaker(s BreakerState) (*breaker, error) {
	b := &breaker{fails: s.Fails, openUntil: s.OpenUntilMs}
	switch s.State {
	case "closed", "":
		b.state = brClosed
	case "open":
		b.state = brOpen
	case "halfopen":
		b.state = brHalfOpen
	default:
		return nil, fmt.Errorf("crawler: unknown breaker state %q", s.State)
	}
	return b, nil
}

// setOpenHostsGauge publishes the number of currently-open breakers.
func (c *Crawler) setOpenHostsGauge() {
	open := 0
	for _, b := range c.breakers {
		if b.state == brOpen {
			open++
		}
	}
	c.m.breakerOpenHosts.Set(int64(open))
}

// breakerRejects consults the host's breaker before a fetch. An open
// breaker defers the URL to its reopen time (no retry attempt consumed);
// once the virtual clock reaches openUntil the breaker half-opens and the
// current URL goes through as the probe.
func (c *Crawler) breakerRejects(item crawldb.FetchItem, tc trace.Context) bool {
	if c.cfg.BreakerFailures <= 0 {
		return false
	}
	br := c.breakers[item.Host]
	if br == nil || br.state != brOpen {
		return false
	}
	if c.nowMs() >= br.openUntil {
		br.state = brHalfOpen
		c.m.breakerHalfOpen.Inc()
		c.setOpenHostsGauge()
		tc.Event("breaker.halfopen", c.nowMs(), trace.String("host", item.Host))
		c.lg.breaker.Info("breaker.halfopen", c.nowMs(), trace.String("host", item.Host))
		return false
	}
	c.db.Defer(item.URL, item.Host, br.openUntil)
	c.stats.BreakerDeferred++
	c.m.breakerDeferred.Inc()
	tc.Event("breaker.defer", c.nowMs(),
		trace.String("host", item.Host), trace.Int("until_ms", br.openUntil))
	return true
}

// breakerAlive records proof the host is serving (success, 404, 429): the
// consecutive-failure count resets and a half-open probe closes the
// breaker.
func (c *Crawler) breakerAlive(host string, tc trace.Context) {
	if c.cfg.BreakerFailures <= 0 {
		return
	}
	br := c.breakers[host]
	if br == nil {
		return
	}
	br.fails = 0
	if br.state != brClosed {
		br.state = brClosed
		c.m.breakerClosed.Inc()
		c.setOpenHostsGauge()
		tc.Event("breaker.closed", c.nowMs(), trace.String("host", host))
		c.lg.breaker.Info("breaker.closed", c.nowMs(), trace.String("host", host))
	}
}

// breakerCharge records a breaker-relevant failure. A failed half-open
// probe reopens immediately; a closed breaker opens once consecutive
// failures reach the threshold.
func (c *Crawler) breakerCharge(host string, now int64, tc trace.Context) {
	if c.cfg.BreakerFailures <= 0 {
		return
	}
	br := c.breakers[host]
	if br == nil {
		br = &breaker{}
		c.breakers[host] = br
	}
	open := false
	switch br.state {
	case brHalfOpen:
		open = true
	case brClosed:
		br.fails++
		open = br.fails >= c.cfg.BreakerFailures
	}
	if open {
		br.state = brOpen
		br.openUntil = now + int64(c.cfg.BreakerOpenMs)
		c.stats.BreakerOpens++
		c.m.breakerOpened.Inc()
		c.setOpenHostsGauge()
		// Flight recorder: the URL whose failure tripped the breaker keeps
		// its full lineage pinned past ring-buffer eviction.
		tc.Error("breaker_open", now,
			trace.String("host", host), trace.Int("until_ms", br.openUntil))
		c.lg.breaker.Warn("breaker.open", now,
			trace.String("host", host), trace.Int("until_ms", br.openUntil))
	}
}

// backoffDelay is the retry delay after a failed attempt: exponential in
// the attempt number, capped at backoffMaxMs, plus a deterministic jitter
// in [0, backoffBaseMs) hashed from (URL, attempt) so co-failing URLs
// don't retry in lockstep.
func backoffDelay(url string, attempt int) int64 {
	shift := uint(attempt)
	if shift > 20 {
		shift = 20
	}
	d := min(int64(backoffBaseMs)<<shift, backoffMaxMs)
	return d + int64(obs.FNVString(url+"/"+strconv.Itoa(attempt))%backoffBaseMs)
}

// scheduleRetry requeues a failed URL, eligible again at eligibleMs.
func (c *Crawler) scheduleRetry(item crawldb.FetchItem, eligibleMs int64) {
	c.db.Requeue(item.URL, item.Host, eligibleMs)
	c.stats.Retries++
	c.m.retrySched.Inc()
}

// abandon marks a URL terminally failed after its retry budget ran out.
// The trace is pinned (retry exhaustion is an error-class event) and
// finished.
func (c *Crawler) abandon(url string, tc trace.Context, now int64) {
	c.db.SetStatus(url, crawldb.Failed)
	if c.cfg.MaxRetries > 0 {
		c.stats.RetriesExhausted++
		c.m.retryExhausted.Inc()
		tc.Error("retry_exhausted", now, trace.Int("attempts", int64(c.cfg.MaxRetries+1)))
	}
	c.finishTrace(tc, "failed", now)
}

// onFetchError classifies a failed fetch attempt and decides between
// retry, breaker accounting, and terminal failure:
//
//   - rate limits (429) honor the server's retry-after and never charge
//     the breaker (the host is alive, just throttling);
//   - transient errors, truncated bodies, and dead hosts charge the
//     breaker and back off exponentially while the budget lasts;
//   - 404s and malformed URLs fail permanently (retrying is futile) and
//     count as proof of life for the breaker.
func (c *Crawler) onFetchError(item crawldb.FetchItem, attempt int, info synthweb.FetchInfo, err error, tc trace.Context) {
	c.stats.FetchErrors++
	c.m.fetchErr.Inc()
	now := c.nowMs()
	tc.Event("fetch.error", now,
		trace.Int("attempt", int64(attempt)), trace.String("cause", err.Error()))
	switch {
	case errors.Is(err, synthweb.ErrRateLimited):
		c.stats.RateLimited++
		c.m.rateLimited.Inc()
		c.breakerAlive(item.Host, tc)
		if attempt < c.cfg.MaxRetries {
			tc.Event("retry.ratelimit", now, trace.Int("retry_after_ms", int64(info.RetryAfterMs)))
			c.scheduleRetry(item, now+int64(info.RetryAfterMs))
		} else {
			c.abandon(item.URL, tc, now)
		}
	case errors.Is(err, synthweb.ErrHostDown),
		errors.Is(err, synthweb.ErrFetchFailed),
		errors.Is(err, synthweb.ErrTruncated):
		if errors.Is(err, synthweb.ErrHostDown) {
			c.m.hostDown.Inc()
		}
		if errors.Is(err, synthweb.ErrTruncated) {
			c.m.truncated.Inc()
		}
		c.breakerCharge(item.Host, now, tc)
		if attempt < c.cfg.MaxRetries {
			d := backoffDelay(item.URL, attempt)
			c.m.retryBackoffMs.Observe(float64(d))
			tc.Event("retry.backoff", now,
				trace.Int("attempt", int64(attempt)), trace.Int("delay_ms", d))
			c.scheduleRetry(item, now+d)
		} else {
			c.abandon(item.URL, tc, now)
		}
	default:
		c.breakerAlive(item.Host, tc)
		c.db.SetStatus(item.URL, crawldb.Failed)
		c.finishTrace(tc, "failed", now)
	}
}
