// Package postag implements the part-of-speech tagger of the paper's
// pipeline: a hidden Markov model in the style of MedPost (§4.2: "our
// part-of-speech tagger, MedPost, uses a Hidden Markov Model of order
// three"), with Viterbi decoding, a suffix-based unknown-word model, and
// the MedPost failure mode — crashes on degenerate, extremely long
// "sentences" from web text (Fig 3a discussion).
//
// Both order 2 (bigram transitions) and order 3 (trigram transitions) are
// supported; the ablation bench compares them. Order 3 decodes exactly but
// not densely: two admissible bounds prune the tag-pair lattice to the
// states that can still lie on a best path. One bounds every completion
// from a bigram relaxation, and its slack grows with the tokens still to
// come; the other bounds what a state can gain on the position's best one
// before their paths rejoin two tokens later, and does not grow at all. So
// a sentence of clean text keeps one or two states per token at any length
// up to MaxTokens, and web text a dozen or two, where unknown words leave
// emissions little to tell tags apart by. That is where §4.2's "large
// runtime fluctuations" come from here; the dense sweep's cost is the
// ceiling.
package postag

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// TaggedToken is one training token.
type TaggedToken struct {
	Word, Tag string
}

// ErrTooLong reports the MedPost-style crash on degenerate input: "large
// runtime fluctuations ... and even occasional crashes, especially when the
// tagger is applied to very long sentences" (§4.2).
var ErrTooLong = errors.New("postag: sentence exceeds maximum length")

// Config controls training and decoding.
type Config struct {
	// Order is the HMM order: 2 (bigram) or 3 (trigram, MedPost-like).
	Order int
	// MaxTokens is the crash threshold; 0 disables the limit.
	MaxTokens int
	// SuffixLen is the suffix length of the unknown-word model.
	SuffixLen int
}

// DefaultConfig returns the paper-like configuration.
func DefaultConfig() Config {
	return Config{Order: 3, MaxTokens: 400, SuffixLen: 3}
}

// Tagger is a trained HMM tagger.
type Tagger struct {
	cfg   Config
	tags  []string
	tagIx map[string]int

	// logTrans2[i][j] = log P(t_j | t_i); logTrans3[i*T+j][k] = log P(t_k | t_i, t_j).
	logTrans2 [][]float64
	logTrans3 [][]float64

	// emission log-probs per tag: known words and suffix fallback.
	logEmit    []map[string]float64
	logSuffix  []map[string]float64
	logUnknown []float64 // per-tag floor for fully unknown shapes

	// shape priors: log P(tag | shape-class) for unknown words.
	logShape map[string][]float64

	// Tag's lookup tables, derived from the model above once, at the end of
	// Train, and read-only afterwards. wordRow holds the full emission row of
	// every known word, suffixRow the per-tag suffix score of every known
	// suffix with logUnknown where a tag never saw it.
	wordRow   map[string][]float64
	suffixRow map[string][]float64
	// transBound[j*T+b] = max over a of logTrans3[a*S+b][j]: no trigram
	// transition out of tag b into tag j scores higher (order 3 only).
	// transBoundMax[j] = max over b of transBound[j*T+b].
	transBound    []float64
	transBoundMax []float64
	// merge[r*N+s], over the N = (T+1)·T pair states a*T+b: the most two
	// more tags can add after state s beyond what the same two add after
	// state r, where both paths have rejoined (order 3 only).
	merge []float64
}

// Train estimates the model from gold-tagged sentences.
func Train(sentences [][]TaggedToken, cfg Config) *Tagger {
	if cfg.Order != 2 && cfg.Order != 3 {
		cfg.Order = 3
	}
	if cfg.SuffixLen <= 0 {
		cfg.SuffixLen = 3
	}
	t := &Tagger{cfg: cfg, tagIx: map[string]int{}}

	// Collect tagset.
	for _, s := range sentences {
		for _, tok := range s {
			if _, ok := t.tagIx[tok.Tag]; !ok {
				t.tagIx[tok.Tag] = len(t.tags)
				t.tags = append(t.tags, tok.Tag)
			}
		}
	}
	T := len(t.tags)

	// Counts.
	c2 := make([][]float64, T+1) // index T = sentence start
	for i := range c2 {
		c2[i] = make([]float64, T)
	}
	c3 := make([][]float64, (T+1)*(T+1))
	for i := range c3 {
		c3[i] = make([]float64, T)
	}
	emitCount := make([]map[string]float64, T)
	sufCount := make([]map[string]float64, T)
	shapeCount := map[string][]float64{}
	tagTotal := make([]float64, T)
	for i := 0; i < T; i++ {
		emitCount[i] = map[string]float64{}
		sufCount[i] = map[string]float64{}
	}

	for _, s := range sentences {
		prev1, prev2 := T, T // start symbols
		for _, tok := range s {
			ti := t.tagIx[tok.Tag]
			c2[prev1][ti]++
			c3[prev2*(T+1)+prev1][ti]++
			w := tok.Word
			emitCount[ti][w]++
			sufCount[ti][suffix(w, cfg.SuffixLen)]++
			sh := shape(w)
			if shapeCount[sh] == nil {
				shapeCount[sh] = make([]float64, T)
			}
			shapeCount[sh][ti]++
			tagTotal[ti]++
			prev2, prev1 = prev1, ti
		}
	}

	// Normalize to log-probs with add-one smoothing.
	t.logTrans2 = make([][]float64, T+1)
	for i := range t.logTrans2 {
		t.logTrans2[i] = make([]float64, T)
		var sum float64
		for j := 0; j < T; j++ {
			sum += c2[i][j]
		}
		for j := 0; j < T; j++ {
			t.logTrans2[i][j] = math.Log((c2[i][j] + 1) / (sum + float64(T)))
		}
	}
	if cfg.Order == 3 {
		t.logTrans3 = make([][]float64, (T+1)*(T+1))
		for i := range t.logTrans3 {
			t.logTrans3[i] = make([]float64, T)
			var sum float64
			for j := 0; j < T; j++ {
				sum += c3[i][j]
			}
			for j := 0; j < T; j++ {
				// Interpolate trigram with bigram (deleted interpolation,
				// fixed lambdas — adequate for a synthetic tagset).
				tri := (c3[i][j] + 0.5) / (sum + 0.5*float64(T))
				bi := math.Exp(t.logTrans2[i%(T+1)][j])
				t.logTrans3[i][j] = math.Log(0.7*tri + 0.3*bi)
			}
		}
	}

	t.logEmit = make([]map[string]float64, T)
	t.logSuffix = make([]map[string]float64, T)
	t.logUnknown = make([]float64, T)
	var grandTotal float64
	for i := 0; i < T; i++ {
		grandTotal += tagTotal[i]
	}
	for i := 0; i < T; i++ {
		t.logEmit[i] = make(map[string]float64, len(emitCount[i]))
		vocab := float64(len(emitCount[i])) + 1
		for w, c := range emitCount[i] {
			t.logEmit[i][w] = math.Log(c / (tagTotal[i] + vocab))
		}
		t.logSuffix[i] = make(map[string]float64, len(sufCount[i]))
		for s, c := range sufCount[i] {
			t.logSuffix[i][s] = math.Log(c / (tagTotal[i] + vocab))
		}
		t.logUnknown[i] = math.Log(1 / (tagTotal[i] + vocab))
	}
	t.logShape = map[string][]float64{}
	for sh, counts := range shapeCount {
		l := make([]float64, T)
		var sum float64
		for _, c := range counts {
			sum += c
		}
		for i, c := range counts {
			l[i] = math.Log((c + 0.5) / (sum + 0.5*float64(T)))
		}
		t.logShape[sh] = l
	}
	t.densify()
	return t
}

// densify derives Tag's lookup tables from the trained model. Every table
// entry is a function of its key alone, so the maps' iteration order leaves
// no trace.
func (t *Tagger) densify() {
	T := len(t.tags)
	t.suffixRow = map[string][]float64{}
	for _, known := range t.logSuffix {
		for suf := range known {
			if t.suffixRow[suf] != nil {
				continue
			}
			row := make([]float64, T)
			for ti := range row {
				if lp, ok := t.logSuffix[ti][suf]; ok {
					row[ti] = lp
				} else {
					row[ti] = t.logUnknown[ti]
				}
			}
			t.suffixRow[suf] = row
		}
	}
	t.wordRow = map[string][]float64{}
	for _, known := range t.logEmit {
		for w := range known {
			if t.wordRow[w] != nil {
				continue
			}
			row := make([]float64, T)
			t.unknownRow(w, row)
			for ti := range row {
				if lp, ok := t.logEmit[ti][w]; ok {
					row[ti] = lp
				}
			}
			t.wordRow[w] = row
		}
	}
	if t.cfg.Order != 3 {
		return
	}
	S := T + 1
	t.transBound = make([]float64, T*T)
	t.transBoundMax = make([]float64, T)
	for j := 0; j < T; j++ {
		t.transBoundMax[j] = math.Inf(-1)
		for b := 0; b < T; b++ {
			bound := math.Inf(-1)
			for a := 0; a < S; a++ {
				bound = max(bound, t.logTrans3[a*S+b][j])
			}
			t.transBound[j*T+b] = bound
			t.transBoundMax[j] = max(t.transBoundMax[j], bound)
		}
	}
	// second[(r*T+b)*T+j1] = max over j2 of logTrans3[b,j1][j2] −
	// logTrans3[r,j1][j2]: the second step's part of merge, O(T⁴) once
	// instead of inside the O(N²·T) loop.
	second := make([]float64, T*T*T)
	for x := range second {
		r, b, j1 := x/(T*T), x/T%T, x%T
		from, to := t.logTrans3[r*S+j1], t.logTrans3[b*S+j1]
		second[x] = math.Inf(-1)
		for j2, lp := range to {
			second[x] = max(second[x], lp-from[j2])
		}
	}
	N := S * T
	t.merge = make([]float64, N*N)
	for x := range t.merge {
		r, s := x/N, x%N
		from, to := t.logTrans3[r/T*S+r%T], t.logTrans3[s/T*S+s%T]
		from, rest := from[:len(to)], second[(r%T*T+s%T)*T:][:len(to)]
		m := math.Inf(-1)
		for j1, lp := range to {
			if d := lp - from[j1] + rest[j1]; d > m {
				m = d
			}
		}
		t.merge[x] = m
	}
}

func suffix(w string, n int) string {
	if len(w) <= n {
		return strings.ToLower(w)
	}
	return strings.ToLower(w[len(w)-n:])
}

// shape classifies a word's surface shape, the signal unknown-word tagging
// leans on (and, for NER downstream, the very signal that makes TLAs look
// like gene symbols).
func shape(w string) string {
	hasDigit, hasUpper, hasLower, hasHyphen := false, false, false, false
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
		case c >= 'A' && c <= 'Z':
			hasUpper = true
		case c >= 'a' && c <= 'z':
			hasLower = true
		case c == '-':
			hasHyphen = true
		}
	}
	switch {
	case hasDigit && !hasUpper && !hasLower:
		return "num"
	case hasDigit:
		return "alnum"
	case hasUpper && !hasLower && len(w) <= 4:
		return "acro"
	case hasUpper && !hasLower:
		return "upper"
	case hasUpper:
		return "cap"
	case hasHyphen:
		return "hyph"
	case hasLower:
		return "lower"
	default:
		return "other"
	}
}

// foldedSuffixMax bounds the stack buffer foldedSuffixRow lower-cases into:
// one input byte folds to at most three (an invalid byte becomes U+FFFD).
const foldedSuffixMax = 48

// foldedSuffixRow returns suffixRow[suffix(w, SuffixLen)] without building
// the key: strings.ToLower is unicode.ToLower rune by rune, an invalid byte
// read as U+FFFD.
func (t *Tagger) foldedSuffixRow(w string) []float64 {
	if len(w) > t.cfg.SuffixLen {
		w = w[len(w)-t.cfg.SuffixLen:]
	}
	var buf [foldedSuffixMax]byte
	key := buf[:0]
	for _, r := range w {
		key = utf8.AppendRune(key, unicode.ToLower(r))
	}
	return t.suffixRow[string(key)]
}

// unknownRow fills dst with log P(word | tag) for a word no tag has seen:
// its suffix's score, or the per-tag floor, plus half its shape's prior.
func (t *Tagger) unknownRow(w string, dst []float64) {
	base := t.foldedSuffixRow(w)
	if base == nil {
		base = t.logUnknown
	}
	shp := t.logShape[shape(w)]
	for ti := range dst {
		lp := base[ti]
		if shp != nil {
			lp += 0.5 * shp[ti]
		}
		dst[ti] = lp
	}
}

// emitRow fills dst with log P(word | tag) for every tag: the known-word
// table with suffix/shape fallback for the tags that never saw the word.
func (t *Tagger) emitRow(w string, dst []float64) {
	if row, ok := t.wordRow[w]; ok {
		copy(dst, row)
		return
	}
	t.unknownRow(w, dst)
}

// Tag decodes the most likely tag sequence for words via Viterbi. It
// returns ErrTooLong for sentences over the configured limit. A Tagger is
// safe for concurrent Tag calls: decoding reads the trained tables and
// writes only per-call or pooled scratch.
func (t *Tagger) Tag(words []string) ([]string, error) {
	if t.cfg.MaxTokens > 0 && len(words) > t.cfg.MaxTokens {
		return nil, fmt.Errorf("%w: %d tokens (limit %d)", ErrTooLong, len(words), t.cfg.MaxTokens)
	}
	if len(words) == 0 {
		return nil, nil
	}
	if t.cfg.Order == 3 {
		lat := latticePool.Get().(*lattice)
		tags, err := t.viterbi3(lat, words)
		latticePool.Put(lat)
		return tags, err
	}
	return t.viterbi2(words)
}

// viterbi2 decodes with bigram transitions: O(n·T²).
func (t *Tagger) viterbi2(words []string) ([]string, error) {
	T := len(t.tags)
	n := len(words)
	delta := make([]float64, T)
	back := make([][]int16, n)
	em := make([]float64, T)
	t.emitRow(words[0], em)
	for j := 0; j < T; j++ {
		delta[j] = t.logTrans2[T][j] + em[j]
	}
	next := make([]float64, T)
	for i := 1; i < n; i++ {
		back[i] = make([]int16, T)
		t.emitRow(words[i], em)
		for j := 0; j < T; j++ {
			best := math.Inf(-1)
			var arg int16
			for k := 0; k < T; k++ {
				if v := delta[k] + t.logTrans2[k][j]; v > best {
					best = v
					arg = int16(k)
				}
			}
			next[j] = best + em[j]
			back[i][j] = arg
		}
		delta, next = next, delta
	}
	bestJ := 0
	for j := 1; j < T; j++ {
		if delta[j] > delta[bestJ] {
			bestJ = j
		}
	}
	out := make([]string, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = t.tags[bestJ]
		if i > 0 {
			bestJ = int(back[i][bestJ])
		}
	}
	return out, nil
}

// lattice is viterbi3's scratch, reused across calls through latticePool.
// A tag-pair state (a, b) — a ∈ [0..T] with T the start symbol, b ∈ [0..T-1]
// — is encoded as a*T + b.
type lattice struct {
	emit  []float64 // n×T: emit[i*T+j] = log P(words[i] | tag j)
	ahead []float64 // n×T: ahead[i*T+b] bounds any completion after tag b at i
	gain  []float64 // T: the backward pass's emit + ahead of the position to the right

	// The position being filled, over the T×T states a token other than the
	// first can be in: best score so far (-Inf where unreached) and the
	// index, among the previous position's survivors, of the state it came
	// from. reached marks the rows that hold anything.
	next    []float64
	from    []int32
	reached []bool

	// Survivors of every position, concatenated in ascending state order;
	// position i owns [start[i], start[i+1]). back indexes the previous
	// position's survivors. cur and grown hold the scores of the last
	// complete position and of the one being collected.
	start      []int32
	state      []int32
	back       []int32
	cur, grown []float64
}

var latticePool = sync.Pool{New: func() any { return new(lattice) }}

// reset sizes the scratch for n tokens over T tags. next is all -Inf
// between calls: viterbi3 clears every row it reaches.
func (l *lattice) reset(n, T int) {
	if cap(l.emit) < n*T {
		l.emit = make([]float64, n*T)
		l.ahead = make([]float64, n*T)
	}
	l.emit, l.ahead = l.emit[:n*T], l.ahead[:n*T]
	if len(l.next) != T*T {
		l.next = make([]float64, T*T)
		for i := range l.next {
			l.next[i] = math.Inf(-1)
		}
		l.from = make([]int32, T*T)
		l.reached = make([]bool, T)
		l.gain = make([]float64, T)
	}
	l.start = append(l.start[:0], 0)
	l.state, l.back = l.state[:0], l.back[:0]
	l.cur, l.grown = l.cur[:0], l.grown[:0]
}

// viterbi3 decodes with trigram transitions over tag-pair states and
// returns exactly the path a dense sweep of all (T+1)·T states would: the
// same scores from the same additions in the same order, the same strict
// comparisons over states in ascending index, so the same winner of every
// tie. It only declines to extend states that cannot lie on a best path.
//
// ahead[i][b] is an upper bound on what any path can still add after tag b
// at position i, from the bigram relaxation transBound of the trigram
// table. floor is the score of one real path, so the best path scores at
// least that. A state whose score plus bound falls short of floor is on no
// best path. ahead sums one relaxation per token still to come, so on a
// long sentence its slack outgrows what a wrong tag costs.
//
// The second test's slack does not grow. Take the position's best state r,
// of score best, and another state s of score v. A completion of s two or
// more tokens long reaches some state (j1, j2); from there on it is a
// completion of r too, with the same emissions, and up to there it adds at
// most merge[r][s] more than it would after r. A shorter completion gains
// no more: two distributions p and q always have some tag with p ≥ q, so
// merge[r][s] is at least 0 and at least any first step's gain. So if
// v + merge[r][s] falls short of best, a path through r beats every path
// through s, however long the sentence.
//
// Every state of a best path clears both tests, with slack far above the
// rounding difference between the bounds' summation order and the
// lattice's. Survivors' scores can only be lower than in the dense sweep,
// never higher, and those on the best path are equal — so dropping the
// rest changes no comparison the best path wins.
func (t *Tagger) viterbi3(lat *lattice, words []string) ([]string, error) {
	T := len(t.tags)
	if T == 0 {
		return nil, errNoPath // trained on nothing
	}
	n := len(words)
	S := T + 1 // tag alphabet incl. start
	neg := math.Inf(-1)
	lat.reset(n, T)
	em, ahead := lat.emit, lat.ahead
	for i, w := range words {
		t.emitRow(w, em[i*T:(i+1)*T])
	}

	// Backward pass: ahead[n-1] = 0, ahead[i][b] = max over j of
	// transBound[b→j] + gain[j] with gain[j] = em[i+1][j] + ahead[i+1][j].
	// The tag with the best gain sets every b first; a tag that cannot beat
	// the least of those even through its best transition raises no b and
	// is skipped whole — on clean text, all but the first.
	clear(ahead[(n-1)*T:])
	gain := lat.gain
	for i := n - 2; i >= 0; i-- {
		first := 0
		for j := range gain {
			gain[j] = em[(i+1)*T+j] + ahead[(i+1)*T+j]
			if gain[j] > gain[first] {
				first = j
			}
		}
		into := ahead[i*T : (i+1)*T]
		least := math.Inf(1)
		for b, lp := range t.transBound[first*T : (first+1)*T] {
			if into[b] = lp + gain[first]; into[b] < least {
				least = into[b]
			}
		}
		for j, g := range gain {
			if j == first || g+t.transBoundMax[j] <= least {
				continue
			}
			for b, lp := range t.transBound[j*T : (j+1)*T] {
				if v := lp + g; v > into[b] {
					into[b] = v
				}
			}
		}
	}

	// One real path, each step the tag with the best score-plus-bound,
	// summed the way the lattice sums.
	floor := 0.0
	for i, a, b := 0, T, T; i < n; i++ {
		row := t.logTrans3[a*S+b]
		best, arg := neg, 0
		for j, lp := range row {
			if v := lp + em[i*T+j] + ahead[i*T+j]; v > best {
				best, arg = v, j
			}
		}
		floor = floor + row[arg] + em[i*T+arg]
		a, b = b, arg
	}
	floor -= 1e-6 + 1e-9*math.Abs(floor)

	// First token: states (start, j).
	for j, lp := range t.logTrans3[T*S+T] {
		if v := lp + em[j]; v+ahead[j] >= floor {
			lat.state = append(lat.state, int32(T*T+j))
			lat.back = append(lat.back, -1)
			lat.cur = append(lat.cur, v)
		}
	}
	lat.start = append(lat.start, int32(len(lat.state)))

	for i := 1; i < n; i++ {
		e := em[i*T : (i+1)*T]
		best, bestS := neg, 0
		for k, st := range lat.state[lat.start[i-1]:lat.start[i]] {
			a := int(st) / T // previous-previous tag (or start)
			b := int(st) % T // previous tag
			row := t.logTrans3[a*S+b]
			score := lat.cur[k]
			next, from := lat.next[b*T:(b+1)*T], lat.from[b*T:(b+1)*T]
			row, e := row[:len(next)], e[:len(next)] // one length: no bounds checks below
			lat.reached[b] = true
			for j := range next {
				v := score + row[j] + e[j]
				if v > next[j] {
					next[j] = v
					from[j] = int32(k)
					if v > best {
						best, bestS = v, b*T+j
					}
				}
			}
		}
		rival := t.merge[bestS*S*T : (bestS+1)*S*T]
		cut := best - (1e-6 + 1e-9*math.Abs(best))
		lat.grown = lat.grown[:0]
		aheadI := ahead[i*T : (i+1)*T]
		for b, hit := range lat.reached {
			if !hit {
				continue
			}
			lat.reached[b] = false
			next := lat.next[b*T : (b+1)*T]
			from, rivalB, aheadI := lat.from[b*T:][:len(next)], rival[b*T:][:len(next)], aheadI[:len(next)]
			for j, v := range next {
				next[j] = neg
				if v+aheadI[j] >= floor && v+rivalB[j] >= cut {
					lat.state = append(lat.state, int32(b*T+j))
					lat.back = append(lat.back, from[j])
					lat.grown = append(lat.grown, v)
				}
			}
		}
		lat.start = append(lat.start, int32(len(lat.state)))
		lat.cur, lat.grown = lat.grown, lat.cur
	}

	// Best final state: the best path's own always survives.
	bestK := 0
	for k, score := range lat.cur {
		if score > lat.cur[bestK] {
			bestK = k
		}
	}
	out := make([]string, n)
	for i, k := n-1, int32(bestK); i >= 0; i-- {
		at := lat.start[i] + k
		out[i] = t.tags[int(lat.state[at])%T]
		k = lat.back[at]
	}
	return out, nil
}

var errNoPath = errors.New("postag: no path")
