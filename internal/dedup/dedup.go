// Package dedup implements near-duplicate detection for web text:
// word-shingle MinHash signatures with LSH banding. Redundancy is one of
// the §1 challenges of web data ("analyzing web data is not trivial due to
// its scale, distribution, heterogeneity, redundancy, and questionable
// quality"): mirrors, syndicated articles and boilerplate-shifted copies
// survive exact-hash deduplication and inflate every frequency the content
// analysis reports.
//
// The construction is the standard one: k-word shingles hashed to 64 bits,
// an n-permutation MinHash signature (implemented as n independent
// mix-functions over the shingle hashes), and an LSH index with b bands of
// r rows (n = b·r) so that candidate pairs are only compared when they
// collide in at least one band.
package dedup

import (
	"strings"
	"sync"

	"webtextie/internal/obs"
)

// SignatureSize is the number of MinHash components.
const SignatureSize = 64

// Signature is a document's MinHash sketch.
type Signature [SignatureSize]uint64

// mix64 is a strong 64-bit mixer (splitmix64 finalizer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashShingle hashes one shingle string.
func hashShingle(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// asciiSpace matches the ASCII subset of unicode.IsSpace, the separator
// set strings.Fields uses; on ASCII input the two tokenizations agree.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
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

// hashWindow is hashShingle(strings.Join(loweredWords[i:i+k], " "))
// computed directly over the word spans of text, byte for byte: the FNV
// stream sees each word's case-folded bytes with a single space between
// words, exactly what the Join-then-hash form feeds it (pinned by test).
// spans holds (start, end) pairs, two int32 per word.
func hashWindow(text string, spans []int32, i, k int) uint64 {
	h := uint64(14695981039346656037)
	for w := 0; w < k; w++ {
		if w > 0 {
			h ^= uint64(' ')
			h *= 1099511628211
		}
		s, e := spans[2*(i+w)], spans[2*(i+w)+1]
		for j := s; j < e; j++ {
			c := text[j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return h
}

// Shingles returns the hashed k-word shingles of text (lower-cased,
// whitespace-tokenized). Texts shorter than k words yield one shingle.
// ASCII text — the hot mass of the crawl — is hashed straight off word
// spans without lower-casing, splitting, or joining copies; non-ASCII
// text takes the legacy copying path with identical results.
func Shingles(text string, k int) []uint64 {
	if k <= 0 {
		k = 3
	}
	if !asciiOnly(text) {
		return shinglesUnicode(text, k)
	}
	spans := make([]int32, 0, 2+len(text)/3)
	for i := 0; i < len(text); {
		if asciiSpace(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && !asciiSpace(text[j]) {
			j++
		}
		spans = append(spans, int32(i), int32(j))
		i = j
	}
	nw := len(spans) / 2
	if nw == 0 {
		return nil
	}
	if nw <= k {
		out := make([]uint64, 1)
		out[0] = hashWindow(text, spans, 0, nw)
		return out
	}
	out := make([]uint64, 0, nw-k+1)
	for i := 0; i+k <= nw; i++ {
		out = append(out, hashWindow(text, spans, i, k))
	}
	return out
}

// shinglesUnicode is the legacy whole-copy shingle path, kept for
// non-ASCII documents where per-byte case folding is wrong.
func shinglesUnicode(text string, k int) []uint64 {
	words := strings.Fields(strings.ToLower(text))
	if len(words) == 0 {
		return nil
	}
	if len(words) <= k {
		out := make([]uint64, 1)
		out[0] = hashShingle(strings.Join(words, " "))
		return out
	}
	out := make([]uint64, 0, len(words)-k+1)
	for i := 0; i+k <= len(words); i++ {
		out = append(out, hashShingle(strings.Join(words[i:i+k], " ")))
	}
	return out
}

// MinHash computes the signature of a shingle set.
func MinHash(shingles []uint64) Signature {
	var sig Signature
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	if len(shingles) == 0 {
		return sig
	}
	for _, sh := range shingles {
		for i := 0; i < SignatureSize; i++ {
			// Per-component permutation: mix with a component-specific salt.
			v := mix64(sh ^ (uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d))
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Sketch computes the signature of a text directly.
func Sketch(text string, shingleK int) Signature {
	return MinHash(Shingles(text, shingleK))
}

// Similarity estimates the Jaccard similarity of the underlying shingle
// sets from two signatures.
func Similarity(a, b Signature) float64 {
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / SignatureSize
}

// Index is an LSH index over MinHash signatures, safe for concurrent use.
type Index struct {
	// Threshold is the similarity above which a document counts as a
	// duplicate of an indexed one.
	Threshold float64
	bands     int
	rows      int

	mu      sync.Mutex
	buckets []map[uint64][]int // per band: bucket-hash -> entry ids
	ids     []string
	sigs    []Signature

	// seenMark is the per-probe candidate-dedup scratch: seenMark[i] ==
	// seenEpoch means entry i was already compared this AddOrFind call.
	// Bumping the epoch resets the set without touching memory; the rare
	// wrap to 0 clears the slice once.
	seenMark  []uint32
	seenEpoch uint32

	cIndexed, cDup, cCand *obs.Counter
}

// WithMetrics redirects the index's counters (dedup.indexed,
// dedup.duplicates, dedup.candidates) to the given registry; the default
// is obs.Default(). Returns the index for chaining.
func (x *Index) WithMetrics(reg *obs.Registry) *Index {
	reg = obs.Or(reg)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cIndexed = reg.Counter("dedup.indexed")
	x.cDup = reg.Counter("dedup.duplicates")
	x.cCand = reg.Counter("dedup.candidates")
	return x
}

// NewIndex builds an index with the given duplicate threshold (0 < t < 1)
// and 16 bands of 4 rows (a steep S-curve around ~0.5-0.7 similarity).
func NewIndex(threshold float64) *Index {
	const bands, rows = 16, 4
	idx := &Index{Threshold: threshold, bands: bands, rows: rows,
		buckets: make([]map[uint64][]int, bands)}
	for i := range idx.buckets {
		idx.buckets[i] = map[uint64][]int{}
	}
	return idx.WithMetrics(nil)
}

// bandHash hashes one band of the signature.
func (x *Index) bandHash(sig Signature, band int) uint64 {
	h := uint64(band) + 0x51_7c_c1_b7_27_22_0a_95
	for r := 0; r < x.rows; r++ {
		h = mix64(h ^ sig[band*x.rows+r])
	}
	return h
}

// AddOrFind checks the signature against the index; if a sufficiently
// similar document exists, its id is returned with dup=true and nothing is
// added. Otherwise the document is indexed.
func (x *Index) AddOrFind(id string, sig Signature) (dupOf string, dup bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if need := len(x.ids); len(x.seenMark) < need {
		grown := make([]uint32, need*2+8)
		copy(grown, x.seenMark)
		x.seenMark = grown
	}
	x.seenEpoch++
	if x.seenEpoch == 0 {
		for i := range x.seenMark {
			x.seenMark[i] = 0
		}
		x.seenEpoch = 1
	}
	for b := 0; b < x.bands; b++ {
		h := x.bandHash(sig, b)
		for _, cand := range x.buckets[b][h] {
			if x.seenMark[cand] == x.seenEpoch {
				continue
			}
			x.seenMark[cand] = x.seenEpoch
			x.cCand.Inc()
			if Similarity(sig, x.sigs[cand]) >= x.Threshold {
				x.cDup.Inc()
				return x.ids[cand], true
			}
		}
	}
	x.cIndexed.Inc()
	entry := len(x.ids)
	x.ids = append(x.ids, id)
	x.sigs = append(x.sigs, sig)
	for b := 0; b < x.bands; b++ {
		h := x.bandHash(sig, b)
		x.buckets[b][h] = append(x.buckets[b][h], entry)
	}
	return "", false
}
