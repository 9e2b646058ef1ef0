// Package langid implements character n-gram language identification, the
// "n-gram based language filter" of the paper's crawler (§2.1): pages not
// written in English are discarded because the downstream IE tools are
// language-sensitive. The method is Cavnar-Trenkle rank-order profiles over
// character trigrams, trained here on built-in seed text per language.
//
// The filter runs on every page that survives the MIME and length checks, so
// Identify is written as one pass with no garbage. Text is normalised
// (letters lower-cased, runs of anything else collapsed to one space) byte
// by byte as it streams through a three-byte window, and each trigram is
// counted under its three bytes packed big-endian into 24 bits — integer
// order on packed keys is byte-string order on trigrams. Trigrams over
// [a-z ] count into a dense table, the rest (any byte >= 0x80) into a small
// open-addressing table. The top profileSize trigrams by (count desc,
// trigram asc) are selected, sorted, and walked once against a table
// compiled from all language profiles at New/Train time: packed trigram ->
// row of per-language ranks, languages in sorted order, so every language's
// out-of-place distance accumulates in the same walk and ties between
// languages resolve by name.
//
// An Identifier is safe for concurrent Identify/IsEnglish/Languages calls:
// the compiled table is read-only and the counting scratch is pooled per
// call. Train rebuilds the table in place and must not run concurrently
// with any other method.
package langid

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unicode/utf8"
)

const (
	// profileSize is the number of top n-grams kept per language profile.
	profileSize = 300
	// absent is the rank stored for a trigram a language's profile lacks.
	absent = profileSize

	keyMask  = 1<<24 - 1 // a packed trigram: three bytes, first byte highest
	highBits = 0x808080  // set in a packed trigram iff one of its bytes is >= 0x80

	// An ASCII trigram holds only ' ' and 'a'..'z', whose low five bits are
	// 0 and 1..26: three of them index the dense tables.
	denseSize = 1 << 15
)

// Identifier scores text against a set of language profiles.
type Identifier struct {
	profiles map[string][]uint32 // lang -> packed trigrams in rank order

	// Compiled from profiles by compile.
	langs    []string          // sorted
	denseRow []uint32          // dense index -> row; 0 = in no profile
	highRow  map[uint32]uint32 // the same for trigrams with a byte >= 0x80
	ranks    []uint16          // rank in langs[l] at [row*len(langs)+l]; row 0 is all absent
}

// builtin seed text per language; a few hundred characters of common
// function-word-rich prose is enough for trigram profiles to separate
// European languages reliably.
var builtinSeeds = map[string]string{
	"en": `the of and to in is was for that it with as his on be at by this had
not are but from or have an they which one you were all her she there would
their we him been has when who will no more if out so up said what its about
than into them can only other time new some could these two may first then do`,
	"de": `der die und in den von zu das mit sich des auf für ist im dem nicht
ein eine als auch es an werden aus er hat dass sie nach wird bei einer um am
sind noch wie einem über einen so zum war haben nur oder aber vor zur bis mehr
durch man sein wurde sei`,
	"fr": `de la le et les des en un du une que est pour qui dans a par plus
pas au sur ne se ce il sont la mais comme ou si leur y dont aux avec cette ces
ses être fait elle deux même nous tout on ans entre sans autres après`,
	"es": `de la que el en y a los se del las un por con no una su para es al
lo como más pero sus le ya o este sí porque esta entre cuando muy sin sobre
también me hasta hay donde quien desde todo nos durante todos uno les`,
	"nl": `de het een en van in is dat op te zijn met voor niet aan er om ook
als dan maar bij of uit nog worden door naar heeft hij ze wordt tot je mijn
deze over zo kan geen hem dit onder tegen al waren veel meer doen moet`,
}

// New builds an identifier with the built-in language profiles.
func New() *Identifier {
	id := &Identifier{profiles: map[string][]uint32{}}
	for lang, seed := range builtinSeeds {
		id.profiles[lang] = profileOf(seed)
	}
	id.compile()
	return id
}

// profileOf computes the rank-ordered trigram profile of text: its top
// profileSize packed trigrams, most frequent first.
func profileOf(text string) []uint32 {
	s := scratchPool.Get().(*scratch)
	s.count(text)
	top := topRanked(s.drain())
	prof := make([]uint32, len(top))
	for i, w := range top {
		prof[i] = uint32(w) & keyMask
	}
	scratchPool.Put(s)
	return prof
}

// compile rebuilds the scoring table from the per-language profiles.
func (id *Identifier) compile() {
	id.langs = id.langs[:0]
	for l := range id.profiles {
		id.langs = append(id.langs, l)
	}
	sort.Strings(id.langs)
	nl := len(id.langs)

	id.denseRow = make([]uint32, denseSize)
	id.highRow = map[uint32]uint32{}
	id.ranks = id.ranks[:0]
	addRow := func() uint32 {
		row := uint32(len(id.ranks) / nl)
		for range nl {
			id.ranks = append(id.ranks, absent)
		}
		return row
	}
	addRow()
	for l, lang := range id.langs {
		for rank, key := range id.profiles[lang] {
			row := id.rowOf(key)
			if row == 0 {
				row = addRow()
				if key&highBits == 0 {
					id.denseRow[denseIndex(key)] = row
				} else {
					id.highRow[key] = row
				}
			}
			id.ranks[int(row)*nl+l] = uint16(rank)
		}
	}
}

// rowOf returns the row of ranks for a packed trigram, 0 if no language's
// profile holds it.
func (id *Identifier) rowOf(key uint32) uint32 {
	if key&highBits == 0 {
		return id.denseRow[denseIndex(key)]
	}
	return id.highRow[key]
}

// denseIndex maps a packed ASCII trigram to its dense-table index.
func denseIndex(key uint32) uint32 {
	return (key>>16&31)<<10 | (key>>8&31)<<5 | key&31
}

// asciiNorm maps an ASCII byte to its normalised form: a letter of either
// case to lower case, anything else to a space.
var asciiNorm = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		t[c] = ' '
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = uint8(c), uint8(c)
	}
	return t
}()

// scratch is the per-call counting state. Between calls every table in it
// is empty; drain restores that in time proportional to the distinct
// trigrams counted.
type scratch struct {
	dense   [denseSize]uint32 // count per ASCII trigram, by denseIndex
	touched []uint32          // packed keys of the non-zero dense cells
	high    []uint64          // open addressing, linear probing: (key+1)<<32 | count, 0 = empty
	used    []uint32          // occupied slots of high
	words   []uint64          // drain's output
	dist    []int             // one distance per language
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// count normalises text and counts its trigrams. Normalisation lower-cases
// ASCII letters, keeps every non-ASCII rune (an invalid byte as U+FFFD) and
// collapses each run of anything else to one space, dropping a leading run,
// so that profiles capture letter sequences, not punctuation.
func (s *scratch) count(text string) {
	var key uint32 // the last three normalised bytes, packed
	n := 0         // normalised bytes so far, up to 2
	space := true  // the last normalised byte is a space, or there is none yet
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			i++
			c = asciiNorm[c]
			if c == ' ' && space {
				continue
			}
			space = c == ' '
			key = (key<<8 | uint32(c)) & keyMask
			switch {
			case n < 2:
				n++
			case key&highBits != 0:
				s.countHigh(key)
			default:
				cell := &s.dense[denseIndex(key)]
				if *cell == 0 {
					s.touched = append(s.touched, key)
				}
				*cell++
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		enc := text[i : i+size]
		if r == utf8.RuneError && size == 1 {
			enc = string(utf8.RuneError)
		}
		i += size
		space = false
		for j := 0; j < len(enc); j++ {
			key = (key<<8 | uint32(enc[j])) & keyMask
			if n < 2 {
				n++
			} else {
				s.countHigh(key)
			}
		}
	}
}

// countHigh counts a trigram that has a byte >= 0x80.
func (s *scratch) countHigh(key uint32) {
	if 2*len(s.used) >= len(s.high) {
		s.growHigh()
	}
	tag := uint64(key+1) << 32
	for slot := highSlot(key, len(s.high)); ; slot = (slot + 1) & uint32(len(s.high)-1) {
		switch e := s.high[slot]; {
		case e == 0:
			s.high[slot] = tag | 1
			s.used = append(s.used, slot)
			return
		case e>>32<<32 == tag:
			s.high[slot] = e + 1
			return
		}
	}
}

// highSlot is the home slot of key in a table of size entries, a power of
// two: the top bits of a multiplicative hash.
func highSlot(key uint32, size int) uint32 {
	return key * 0x9E3779B1 >> (33 - bits.Len(uint(size)))
}

// growHigh doubles the overflow table, keeping it at most half full.
func (s *scratch) growHigh() {
	old := s.high
	s.high = make([]uint64, max(256, 2*len(old)))
	mask := uint32(len(s.high) - 1)
	for i, from := range s.used {
		e := old[from]
		slot := highSlot(uint32(e>>32)-1, len(s.high))
		for s.high[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.high[slot] = e
		s.used[i] = slot
	}
}

// drain empties the tables into one word per distinct trigram,
// ^count<<24 | key, so that ascending word order is (count desc, trigram
// asc). The result is valid until the scratch is used again.
func (s *scratch) drain() []uint64 {
	w := s.words[:0]
	for _, key := range s.touched {
		c := &s.dense[denseIndex(key)]
		w = append(w, uint64(^*c)<<24|uint64(key))
		*c = 0
	}
	for _, slot := range s.used {
		e := s.high[slot]
		w = append(w, uint64(^uint32(e))<<24|(e>>32-1))
		s.high[slot] = 0
	}
	s.touched, s.used, s.words = s.touched[:0], s.used[:0], w
	return w
}

// topRanked reorders w so that its profileSize smallest words lead, sorted,
// and returns that prefix: the document's ranked profile.
func topRanked(w []uint64) []uint64 {
	if len(w) > profileSize {
		selectSmallest(w, profileSize)
		w = w[:profileSize]
	}
	slices.Sort(w)
	return w
}

// selectSmallest permutes w so that its k smallest values fill w[:k], in no
// particular order: quickselect on a median-of-three pivot, falling back to
// sorting what is left once the partitions stop shrinking geometrically, so
// no input costs more than O(n log n).
func selectSmallest(w []uint64, k int) {
	lo, hi := 0, len(w)-1
	for budget := 2 * bits.Len(uint(len(w))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(w[lo : hi+1])
			return
		}
		a, p, b := w[lo], w[lo+(hi-lo)/2], w[hi]
		if a > b {
			a, b = b, a
		}
		p = min(max(a, p), b)
		i, j := lo, hi
		for i <= j {
			for w[i] < p {
				i++
			}
			for w[j] > p {
				j--
			}
			if i <= j {
				w[i], w[j] = w[j], w[i]
				i++
				j--
			}
		}
		// w[lo..j] <= p <= w[i..hi], and anything between equals p.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// Identify returns the best-matching language and a confidence in (0, 1].
// Short or empty inputs return ("", 0): the paper's crawler separately
// drops too-short pages, so no guess is better than a wild one.
func (id *Identifier) Identify(text string) (lang string, confidence float64) {
	s := scratchPool.Get().(*scratch)
	lang, confidence = id.identify(s, text)
	scratchPool.Put(s)
	return lang, confidence
}

func (id *Identifier) identify(s *scratch, text string) (string, float64) {
	s.count(text)
	doc := s.drain()
	nl := len(id.langs)
	if len(doc) < 10 || nl == 0 {
		return "", 0
	}
	doc = topRanked(doc)

	// Cavnar-Trenkle out-of-place distance to every language at once: a
	// trigram at rank r in the document and pr in a profile adds |pr - r|,
	// one the profile lacks adds profileSize.
	if cap(s.dist) < nl {
		s.dist = make([]int, nl)
	}
	dist := s.dist[:nl]
	clear(dist)
	unknown := 0 // document trigrams in no profile at all
	for r, w := range doc {
		row := int(id.rowOf(uint32(w) & keyMask))
		if row == 0 {
			unknown++
			continue
		}
		for l, pr := range id.ranks[row*nl : row*nl+nl] {
			switch d := int(pr) - r; {
			case pr == absent:
				dist[l] += profileSize
			case d < 0:
				dist[l] -= d
			default:
				dist[l] += d
			}
		}
	}

	// Strict < over the sorted languages: equal distances go to the name
	// that sorts first.
	best, bestD, secondD := "", math.MaxInt, math.MaxInt
	for l, d := range dist {
		d += unknown * profileSize
		if d < bestD {
			secondD = bestD
			best, bestD = id.langs[l], d
		} else if d < secondD {
			secondD = d
		}
	}
	if best == "" {
		return "", 0
	}
	// Confidence: relative margin between the best and second-best distance.
	if secondD == 0 {
		return best, 0
	}
	margin := float64(secondD-bestD) / float64(secondD)
	return best, 0.5 + margin/2
}

// IsEnglish is the crawler's filter predicate.
func (id *Identifier) IsEnglish(text string) bool {
	lang, conf := id.Identify(text)
	return lang == "en" && conf > 0.5
}
