package crawldb

// Snapshotting: the CrawlDB and LinkDB freeze to plain JSON-encodable
// values and restore losslessly, which is what crawl checkpoint/resume is
// built on — a crawl interrupted mid-cycle restarts from the snapshot and
// produces a byte-identical final corpus (encoding/json renders map keys
// sorted, so the serialized form is itself deterministic).

// Snapshot is the frozen state of a CrawlDB.
type Snapshot struct {
	Status    map[string]Status     `json:"status"`
	Frontier  map[string][]string   `json:"frontier"`
	HostOrder []string              `json:"host_order"`
	Retry     map[string]RetryState `json:"retry,omitempty"`
	Traces    map[string]uint64     `json:"traces,omitempty"`
}

// Snapshot freezes the database. The result shares no state with the db.
func (db *CrawlDB) Snapshot() Snapshot {
	s := Snapshot{
		Status:    make(map[string]Status, len(db.status)),
		Frontier:  make(map[string][]string, len(db.frontier)),
		HostOrder: append([]string(nil), db.hostOrder...),
		Retry:     make(map[string]RetryState, len(db.retry)),
	}
	for u, st := range db.status {
		s.Status[u] = st
	}
	for h, q := range db.frontier {
		s.Frontier[h] = append([]string(nil), q...)
	}
	for u, rs := range db.retry {
		s.Retry[u] = rs
	}
	if len(db.trace) > 0 {
		s.Traces = make(map[string]uint64, len(db.trace))
		for u, id := range db.trace {
			s.Traces[u] = id
		}
	}
	return s
}

// FromSnapshot rebuilds a CrawlDB from a frozen state. The pending count
// is recomputed from the frontier.
func FromSnapshot(s Snapshot) *CrawlDB {
	db := New()
	for u, st := range s.Status {
		db.status[u] = st
	}
	for h, q := range s.Frontier {
		db.frontier[h] = append([]string(nil), q...)
		db.pending += len(q)
	}
	db.hostOrder = append([]string(nil), s.HostOrder...)
	for u, rs := range s.Retry {
		db.retry[u] = rs
	}
	for u, id := range s.Traces {
		db.trace[u] = id
	}
	return db
}

// LinkSnapshot is the frozen state of a LinkDB (out-links only; the edge
// count is derived on restore).
type LinkSnapshot struct {
	Out map[string][]string `json:"out"`
}

// Snapshot freezes the link graph.
func (l *LinkDB) Snapshot() LinkSnapshot {
	s := LinkSnapshot{Out: make(map[string][]string, len(l.out))}
	for src, targets := range l.out {
		s.Out[src] = append([]string(nil), targets...)
	}
	return s
}

// FromLinkSnapshot rebuilds a LinkDB from a frozen state.
func FromLinkSnapshot(s LinkSnapshot) *LinkDB {
	l := NewLinkDB()
	for src, targets := range s.Out {
		l.AddLinks(src, targets)
	}
	return l
}
