// Package dict implements dictionary-based named entity recognition in the
// style the paper uses ("an automaton-based matching algorithm that quickly
// retrieves mentions of entities even for large dictionaries" [11], §3.2):
// an Aho-Corasick automaton over dictionary surface forms, expanded with
// suffix/variant rules ("we transformed each dictionary term into a regular
// expression ... the transformations almost only affect very short word
// suffixes", §4.2).
//
// Two properties of the original tools are reproduced faithfully because
// the evaluation depends on them:
//
//   - construction cost: building the automaton dominates startup (the
//     paper's gene dictionary took ~20 minutes to load, §4.2), which puts a
//     hard floor under every scale-out curve (Fig 5);
//   - memory appetite: the expanded automaton is much larger than the raw
//     dictionary (§4.2: 6-20 GB per worker at 700K-entry scale). Build
//     statistics expose node counts and byte estimates that feed the
//     simulated cluster's memory model.
package dict

import (
	"sort"
	"strings"
	"time"

	"webtextie/internal/obs"
)

// Options controls dictionary expansion.
type Options struct {
	// Variants enables surface-form expansion (case folding handled
	// separately): plural "s"/"es", hyphen/space alternation. Disabling it
	// is the recall-vs-memory ablation.
	Variants bool
	// CaseInsensitive folds matching to lower case (drug and disease names
	// appear in arbitrary case on the web; gene symbols keep case via
	// exact duplicates in the surface list).
	CaseInsensitive bool
}

// DefaultOptions matches the paper's setup.
func DefaultOptions() Options { return Options{Variants: true, CaseInsensitive: true} }

// Match is one dictionary hit.
type Match struct {
	// Start/End are byte offsets into the searched text.
	Start, End int
	// Surface is the matched text slice.
	Surface string
	// Canonical is the dictionary form the variant expanded from.
	Canonical string
}

// BuildStats records construction cost and size.
type BuildStats struct {
	// Entries is the number of canonical dictionary entries.
	Entries int
	// Surfaces is the number of patterns after variant expansion.
	Surfaces int
	// Nodes is the automaton node count.
	Nodes int
	// BuildTime is the wall-clock construction time.
	BuildTime time.Duration
}

// ApproxBytes estimates the automaton's memory footprint (nodes dominate:
// each node carries a sparse edge map and fail/output links).
func (s BuildStats) ApproxBytes() int64 {
	// ~96 bytes of fixed node state plus edge map overhead.
	return int64(s.Nodes) * 160
}

// node is one Aho-Corasick state.
type node struct {
	next map[byte]int32
	fail int32
	// out is the index+1 into the matcher's canonical table if a pattern
	// ends here (0 = none); outLink chains suffix outputs.
	out     int32
	outLen  int32
	outLink int32
}

// Matcher is a built dictionary automaton.
type Matcher struct {
	Name  string
	opts  Options
	nodes []node
	// canon maps output ids to canonical forms.
	canon []string
	stats BuildStats
}

// Stats returns the build statistics.
func (m *Matcher) Stats() BuildStats { return m.stats }

// expandVariants produces the surface variants of one dictionary term.
func expandVariants(term string, opts Options) []string {
	out := []string{term}
	if !opts.Variants {
		return out
	}
	// Plural variants ("regular expression transformations almost only
	// affect very short word suffixes").
	if len(term) > 3 && !strings.HasSuffix(term, "s") {
		out = append(out, term+"s")
		if strings.HasSuffix(term, "x") || strings.HasSuffix(term, "ch") {
			out = append(out, term+"es")
		}
	}
	// Hyphen/space alternation.
	if strings.Contains(term, "-") {
		out = append(out, strings.ReplaceAll(term, "-", " "))
	}
	if strings.Contains(term, " ") {
		out = append(out, strings.ReplaceAll(term, " ", "-"))
	}
	return out
}

// Build constructs the automaton from dictionary surface forms.
func Build(name string, surfaces []string, opts Options) *Matcher {
	sp := obs.Default().StartSpan("dict.build")
	m := &Matcher{Name: name, opts: opts}
	m.nodes = append(m.nodes, node{next: map[byte]int32{}, fail: 0})

	addPattern := func(pat, canonical string) {
		if pat == "" {
			return
		}
		key := pat
		if opts.CaseInsensitive {
			key = strings.ToLower(pat)
		}
		cur := int32(0)
		for i := 0; i < len(key); i++ {
			c := key[i]
			nxt, ok := m.nodes[cur].next[c]
			if !ok {
				nxt = int32(len(m.nodes))
				m.nodes = append(m.nodes, node{next: map[byte]int32{}})
				m.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		if m.nodes[cur].out == 0 {
			m.canon = append(m.canon, canonical)
			m.nodes[cur].out = int32(len(m.canon))
			m.nodes[cur].outLen = int32(len(key))
		}
	}

	seen := map[string]bool{}
	for _, s := range surfaces {
		m.stats.Entries++
		for _, v := range expandVariants(s, opts) {
			k := v
			if opts.CaseInsensitive {
				k = strings.ToLower(v)
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			m.stats.Surfaces++
			addPattern(v, s)
		}
	}

	// BFS to set fail links and output chains. Edges are walked in byte
	// order (not map order) so the traversal — and everything derived from
	// it — is identical across runs.
	queue := make([]int32, 0, len(m.nodes))
	for _, c := range sortedEdges(&m.nodes[0]) {
		nxt := m.nodes[0].next[c]
		m.nodes[nxt].fail = 0
		queue = append(queue, nxt)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range sortedEdges(&m.nodes[u]) {
			v := m.nodes[u].next[c]
			queue = append(queue, v)
			// Follow fail links from u until a state with a c-edge exists.
			f := m.nodes[u].fail
			for {
				if w, ok := m.nodes[f].next[c]; ok && w != v {
					m.nodes[v].fail = w
					break
				}
				if f == 0 {
					m.nodes[v].fail = 0
					break
				}
				f = m.nodes[f].fail
			}
			fv := m.nodes[v].fail
			if m.nodes[fv].out != 0 {
				m.nodes[v].outLink = fv
			} else {
				m.nodes[v].outLink = m.nodes[fv].outLink
			}
		}
	}
	m.stats.Nodes = len(m.nodes)
	m.stats.BuildTime = sp.End()
	return m
}

// sortedEdges returns a node's outgoing edge labels in byte order, so BFS
// never observes Go's per-run randomized map iteration order.
func sortedEdges(n *node) []byte {
	cs := make([]byte, 0, len(n.next))
	for c := range n.next {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// isWordByte reports whether a byte is part of a word (no boundary).
func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// asciiOnly reports whether s contains only ASCII bytes.
func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// lowerASCII folds one ASCII byte to lower case. For ASCII input this is
// exactly what strings.ToLower would produce, byte for byte — the scan
// below relies on that equivalence (pinned by test).
func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// Find returns all whole-word matches in text, resolved left-to-right with
// the longest match winning at each position. The single allocation is the
// result slice; callers on the per-document path should prefer FindAppend
// with a reused buffer.
func (m *Matcher) Find(text string) []Match {
	return m.FindAppend(make([]Match, 0, 8), text)
}

// FindAppend is Find writing into a caller-owned buffer: it appends the
// resolved matches to dst and returns the extended slice. With a buffer
// of sufficient capacity the whole match path is allocation-free for
// ASCII documents; case folding happens per byte during the scan instead
// of copying the document up front. Non-ASCII documents fall back to the
// whole-copy fold, preserving the exact offsets the original
// implementation produced.
func (m *Matcher) FindAppend(dst []Match, text string) []Match {
	base := len(dst)
	if m.opts.CaseInsensitive && !asciiOnly(text) {
		search := strings.ToLower(text)
		dst = m.scan(dst, text, search, false)
	} else {
		dst = m.scan(dst, text, text, m.opts.CaseInsensitive)
	}
	n := resolveLongest(dst[base:])
	return dst[:base+n]
}

// scan runs the automaton over search, appending raw (unresolved) whole
// word matches to dst. Surfaces slice text, which must be byte-aligned
// with search. With foldASCII set, bytes are case-folded on the fly.
func (m *Matcher) scan(dst []Match, text, search string, foldASCII bool) []Match {
	cur := int32(0)
	for i := 0; i < len(search); i++ {
		c := search[i]
		if foldASCII {
			c = lowerASCII(c)
		}
		for {
			if nxt, ok := m.nodes[cur].next[c]; ok {
				cur = nxt
				break
			}
			if cur == 0 {
				break
			}
			cur = m.nodes[cur].fail
		}
		// Collect outputs along the output chain.
		for n := cur; n != 0; {
			nd := &m.nodes[n]
			if nd.out != 0 {
				end := i + 1
				start := end - int(nd.outLen)
				// Whole-word constraint.
				if (start == 0 || !isWordByte(search[start-1])) &&
					(end == len(search) || !isWordByte(search[end])) {
					dst = append(dst, Match{
						Start: start, End: end,
						Surface:   text[start:end],
						Canonical: m.canon[nd.out-1],
					})
				}
			}
			n = nd.outLink
		}
	}
	return dst
}

// resolveLongest keeps, among overlapping matches, the longest one
// (leftmost on ties). It compacts raw in place — writes trail reads, so
// the aliasing is safe — and returns the surviving count.
func resolveLongest(raw []Match) int {
	if len(raw) <= 1 {
		return len(raw)
	}
	// Sort by start, then by longer-first.
	sortMatches(raw)
	out := raw[:0]
	lastEnd := -1
	for _, r := range raw {
		if r.Start >= lastEnd {
			out = append(out, r)
			lastEnd = r.End
			continue
		}
		// Overlap: keep the longer of the previous and current.
		prev := &out[len(out)-1]
		if r.End-r.Start > prev.End-prev.Start && r.Start == prev.Start {
			*prev = r
			lastEnd = r.End
		}
	}
	return len(out)
}

func sortMatches(ms []Match) {
	// Insertion sort is fine: per-sentence match counts are small.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0; j-- {
			a, b := ms[j-1], ms[j]
			if b.Start < a.Start || (b.Start == a.Start && b.End-b.Start > a.End-a.Start) {
				ms[j-1], ms[j] = b, a
			} else {
				break
			}
		}
	}
}
