// Package crawldb implements the crawl-state stores of the Nutch-style
// architecture in Fig 1: the CrawlDB (the crawl frontier: URLs known but
// not yet fetched, plus the fetch status of visited URLs) and the LinkDB
// (the link-graph structure of crawled pages). Both are in-memory,
// deterministic, and support the politeness constraints of §4.1: per-host
// fetch lists capped at a configurable size "to prevent threads from
// blocking each other" (the paper uses 500).
package crawldb

import (
	"math"
	"sort"
)

// Status is the lifecycle state of a URL in the CrawlDB.
type Status int

const (
	// Unfetched means the URL sits in the frontier.
	Unfetched Status = iota
	// Fetched means the URL was downloaded successfully.
	Fetched
	// Failed means the fetch errored (404, robots, bad scheme).
	Failed
	// Filtered means a pre-filter discarded the page (MIME/lang/length).
	Filtered
)

// RetryState is the per-URL retry bookkeeping: how many fetch attempts
// have failed so far and the earliest virtual time the URL may re-enter a
// fetch list (backoff, retry-after, breaker-open windows).
type RetryState struct {
	Attempts       int   `json:"attempts"`
	NextEligibleMs int64 `json:"next_eligible_ms"`
}

// CrawlDB is the frontier and URL-status store. It is not safe for
// concurrent use; the crawler serializes access (generate/fetch/update
// cycles, as in Nutch).
type CrawlDB struct {
	status map[string]Status
	// frontier holds unfetched URLs per host, FIFO within a host.
	frontier map[string][]string
	// hostOrder keeps deterministic iteration order over hosts.
	hostOrder []string
	// retry holds the failed-attempt state of URLs awaiting a retry.
	retry   map[string]RetryState
	pending int
	// trace maps a URL to its obs trace ID (stamped at frontier insertion)
	// so a URL's lineage survives checkpoint/resume along with the frontier.
	trace map[string]uint64
}

// New returns an empty CrawlDB.
func New() *CrawlDB {
	return &CrawlDB{
		status:   map[string]Status{},
		frontier: map[string][]string{},
		retry:    map[string]RetryState{},
		trace:    map[string]uint64{},
	}
}

// SetTrace associates a URL with its trace ID. Zero clears the entry.
func (db *CrawlDB) SetTrace(url string, id uint64) {
	if id == 0 {
		delete(db.trace, url)
		return
	}
	db.trace[url] = id
}

// TraceOf returns the trace ID stamped on a URL, if any.
func (db *CrawlDB) TraceOf(url string) (uint64, bool) {
	id, ok := db.trace[url]
	return id, ok
}

// Inject adds a URL to the frontier if it is unknown (the Nutch injector).
// It returns true if the URL was new.
func (db *CrawlDB) Inject(url, host string) bool {
	if _, known := db.status[url]; known {
		return false
	}
	db.status[url] = Unfetched
	if _, ok := db.frontier[host]; !ok {
		db.hostOrder = append(db.hostOrder, host)
	}
	db.frontier[host] = append(db.frontier[host], url)
	db.pending++
	return true
}

// SetStatus records the outcome of a fetch attempt. Terminal statuses
// (anything but Unfetched) clear the URL's retry state.
func (db *CrawlDB) SetStatus(url string, s Status) {
	db.status[url] = s
	if s != Unfetched {
		delete(db.retry, url)
	}
}

// Requeue returns a generated (in-flight) URL to the frontier after a
// failed attempt: the attempt counter is incremented and the URL becomes
// eligible for fetch lists again once the virtual clock reaches
// nextEligibleMs. Returns the total number of failed attempts so far.
func (db *CrawlDB) Requeue(url, host string, nextEligibleMs int64) int {
	rs := db.retry[url]
	rs.Attempts++
	rs.NextEligibleMs = nextEligibleMs
	db.retry[url] = rs
	db.requeue(url, host)
	return rs.Attempts
}

// Defer returns a generated URL to the frontier without consuming a retry
// attempt — used when the crawler itself declines the fetch (open circuit
// breaker) rather than the fetch failing.
func (db *CrawlDB) Defer(url, host string, nextEligibleMs int64) {
	rs := db.retry[url]
	rs.NextEligibleMs = nextEligibleMs
	db.retry[url] = rs
	db.requeue(url, host)
}

// requeue places an in-flight URL back on its host queue.
func (db *CrawlDB) requeue(url, host string) {
	db.status[url] = Unfetched
	if _, ok := db.frontier[host]; !ok {
		db.hostOrder = append(db.hostOrder, host)
	}
	db.frontier[host] = append(db.frontier[host], url)
	db.pending++
}

// Attempts returns how many fetch attempts of a URL have failed so far.
func (db *CrawlDB) Attempts(url string) int { return db.retry[url].Attempts }

// NextEligible returns the earliest NextEligibleMs across the frontier
// and whether the frontier holds any URL at all. A crawler whose fetch
// list came back empty advances its virtual clock to this time.
func (db *CrawlDB) NextEligible() (int64, bool) {
	if db.pending == 0 {
		return 0, false
	}
	earliest := int64(math.MaxInt64)
	for _, host := range db.hostOrder {
		for _, u := range db.frontier[host] {
			if t := db.retry[u].NextEligibleMs; t < earliest {
				earliest = t
			}
		}
	}
	return earliest, true
}

// Pending returns the number of URLs still in the frontier.
func (db *CrawlDB) Pending() int { return db.pending }

// Known returns the number of URLs ever seen.
func (db *CrawlDB) Known() int { return len(db.status) }

// FetchItem is one entry of a generated fetch list.
type FetchItem struct {
	URL  string
	Host string
}

// GenerateAt produces the next fetch list as of virtual time nowMs: up to
// maxPerHost URLs from each host with pending work, up to total URLs
// overall, skipping URLs whose retry backoff has not yet elapsed
// (NextEligibleMs > nowMs). Hosts are visited in injection order and
// queues stay FIFO, which keeps runs deterministic. Generated URLs leave
// the frontier immediately (they are "in flight"); skipped URLs keep
// their queue position.
func (db *CrawlDB) GenerateAt(total, maxPerHost int, nowMs int64) []FetchItem {
	if maxPerHost <= 0 {
		maxPerHost = 500 // the paper's fetch-list cap (§4.1)
	}
	var out []FetchItem
	for _, host := range db.hostOrder {
		if len(out) >= total {
			break
		}
		q := db.frontier[host]
		if len(q) == 0 {
			continue
		}
		n := maxPerHost
		if rem := total - len(out); n > rem {
			n = rem
		}
		kept := q[:0:0]
		taken := 0
		for i, u := range q {
			if taken >= n {
				kept = append(kept, q[i:]...)
				break
			}
			if db.retry[u].NextEligibleMs > nowMs {
				kept = append(kept, u)
				continue
			}
			out = append(out, FetchItem{URL: u, Host: host})
			taken++
		}
		db.frontier[host] = kept
		db.pending -= taken
	}
	// Drop empty hosts from the order lazily.
	if len(out) == 0 {
		return nil
	}
	return out
}

// LinkDB stores the directed link graph of crawled pages.
type LinkDB struct {
	// out maps a source URL to its out-link targets.
	out   map[string][]string
	edges int
}

// NewLinkDB returns an empty LinkDB.
func NewLinkDB() *LinkDB {
	return &LinkDB{out: map[string][]string{}}
}

// AddLinks records the out-links of a crawled page (replacing any previous
// record for the same source).
func (l *LinkDB) AddLinks(src string, targets []string) {
	l.edges -= len(l.out[src])
	cp := make([]string, len(targets))
	copy(cp, targets)
	l.out[src] = cp
	l.edges += len(cp)
}

// Pages returns all source URLs in sorted order.
func (l *LinkDB) Pages() []string {
	out := make([]string, 0, len(l.out))
	for u := range l.out {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Edges returns the total number of recorded links.
func (l *LinkDB) Edges() int { return l.edges }

// ForEach visits every (src, targets) pair in sorted source order.
func (l *LinkDB) ForEach(fn func(src string, targets []string)) {
	for _, src := range l.Pages() {
		fn(src, l.out[src])
	}
}
