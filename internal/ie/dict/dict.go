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
//     statistics record the automaton's state count and its bytes.
package dict

import (
	"slices"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

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
	// Nodes is the automaton state count.
	Nodes int
	// Bytes is the automaton's size: the capacities of its tables.
	Bytes int64
	// BuildTime is the wall-clock construction time.
	BuildTime time.Duration
}

// Matcher is a built dictionary automaton: a complete DFA over byte
// classes, in flat tables. A pattern is an output; outputs are numbered in
// pattern order, and 1 + that number names one in first and link (0 is
// none).
type Matcher struct {
	Name string
	opts Options
	// class maps a byte to its class: one per byte some pattern uses, in
	// byte order from 1, and 0 for every other byte. With CaseInsensitive
	// A–Z share the classes of a–z.
	class [256]uint16
	// k is the class count, and next[s*k+class] the successor of state s.
	k    int
	next []int32
	// first is, per state, the longest output that ends there: the state's
	// own pattern, else the longest pattern that is a suffix of it.
	first []int32
	// Per output: its pattern's byte length, the next shorter output on
	// its suffix chain, and its canonical form.
	plen  []int32
	link  []int32
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
	sp := obs.StartSpan()
	m := &Matcher{Name: name, opts: opts}

	// The distinct patterns, in order, and the bytes they use.
	var keys []string
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
			if k != "" {
				keys = append(keys, k)
				m.canon = append(m.canon, s)
				for i := 0; i < len(k); i++ {
					m.class[k[i]] = 1
				}
			}
		}
	}
	k := 1
	for c, used := range m.class {
		if used != 0 {
			m.class[c] = uint16(k)
			k++
		}
	}
	if opts.CaseInsensitive {
		for c := 'A'; c <= 'Z'; c++ {
			m.class[c] = m.class[c+'a'-'A']
		}
	}
	m.k = k

	// The trie, straight into the transition table: 0 is "no edge yet",
	// since no edge leads back to the root.
	next, first := make([]int32, k), []int32{0}
	for id, key := range keys {
		cur := 0
		for i := 0; i < len(key); i++ {
			e := cur*k + int(m.class[key[i]])
			if next[e] == 0 {
				next[e] = int32(len(first))
				next = append(next, make([]int32, k)...)
				first = append(first, 0)
			}
			cur = int(next[e])
		}
		first[cur] = int32(id) + 1
		m.plen = append(m.plen, int32(len(key)))
	}
	// Copied out at their final length, the tables carry no append slack.
	m.next, m.first = slices.Clone(next), slices.Clone(first)
	next, first = m.next, m.first
	m.link = make([]int32, len(keys))

	// One BFS in class order completes the table: a missing edge is the
	// fail state's edge, and a new state's fail state is its parent's fail
	// state's successor on the same class. The fail links are scratch.
	fail := make([]int32, len(first))
	queue := make([]int32, 0, len(first))
	for c := 0; c < k; c++ {
		if v := next[c]; v != 0 {
			queue = append(queue, v)
		}
	}
	for h := 0; h < len(queue); h++ {
		u := int(queue[h])
		row, frow := next[u*k:(u+1)*k], next[int(fail[u])*k:]
		for c, v := range row {
			f := frow[c]
			if v == 0 {
				row[c] = f
				continue
			}
			fail[v] = f
			if o := first[v]; o != 0 {
				m.link[o-1] = first[f]
			} else {
				first[v] = first[f]
			}
			queue = append(queue, v)
		}
	}
	m.stats.Nodes = len(first)
	m.stats.Bytes = int64(len(m.class))*2 + 4*int64(cap(m.next)+cap(m.first)+cap(m.plen)+cap(m.link)) +
		int64(unsafe.Sizeof(""))*int64(cap(m.canon))
	m.stats.BuildTime = sp.End()
	return m
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
// ASCII documents, whose case the byte classes fold. Non-ASCII documents
// are scanned in a strings.ToLower copy.
func (m *Matcher) FindAppend(dst []Match, text string) []Match {
	base := len(dst)
	if m.opts.CaseInsensitive && !asciiOnly(text) {
		search := strings.ToLower(text)
		dst = m.scan(dst, text, search, foldOffsets(text, search))
	} else {
		dst = m.scan(dst, text, text, nil)
	}
	n := resolveLongest(dst[base:])
	return dst[:base+n]
}

// foldOffsets maps fold, the strings.ToLower copy of text, back onto text:
// offs[j] is the offset in text of the rune fold's byte j came from, and
// offs[len(fold)] is len(text). It is nil when every rune folds to as many
// bytes as it had, and the offsets need no mapping. Each rune folds to one
// rune and patterns are whole runes, so a match starts and ends on rune
// boundaries of fold, which offs maps to rune boundaries of text.
func foldOffsets(text, fold string) []int {
	var offs []int
	for i := 0; i < len(text); {
		r, w := utf8.DecodeRuneInString(text[i:])
		n := utf8.RuneLen(unicode.ToLower(r))
		if offs == nil && n != w {
			offs = make([]int, i, len(fold)+1)
			for j := range offs {
				offs[j] = j
			}
		}
		for ; offs != nil && n > 0; n-- {
			offs = append(offs, i)
		}
		i += w
	}
	if offs != nil {
		offs = append(offs, len(text))
	}
	return offs
}

// scan runs the automaton over search, appending raw (unresolved) whole
// word matches to dst. Surfaces slice text: at the same offsets when offs
// is nil, else at the runes offs maps search's bytes to.
func (m *Matcher) scan(dst []Match, text, search string, offs []int) []Match {
	next, first, k := m.next, m.first, m.k
	cur := int32(0)
	for i := 0; i < len(search); i++ {
		cur = next[int(cur)*k+int(m.class[search[i]])]
		// Collect outputs along the output chain.
		for o := first[cur]; o != 0; o = m.link[o-1] {
			end := i + 1
			start := end - int(m.plen[o-1])
			// Whole-word constraint.
			if (start == 0 || !isWordByte(search[start-1])) &&
				(end == len(search) || !isWordByte(search[end])) {
				if offs != nil {
					start, end = offs[start], offs[end]
				}
				dst = append(dst, Match{
					Start: start, End: end,
					Surface:   text[start:end],
					Canonical: m.canon[o-1],
				})
			}
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
