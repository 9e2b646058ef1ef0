// Package crf implements the machine-learning entity taggers of §3.2: a
// linear-chain conditional model over BIO labels with Viterbi decoding,
// standing in for BANNER (genes), ChemSpot (drugs) and the authors'
// Mallet-based disease tagger.
//
// Training substitution (documented in DESIGN.md): the original tools
// estimate CRF weights by L-BFGS over the conditional log-likelihood; we
// train the same feature weights with the averaged structured perceptron,
// a standard surrogate that shares the model family, the feature templates
// and — crucially for this paper — the decode path and its cost profile.
// What the evaluation depends on is reproduced:
//
//   - the decode path of Fig 3b: every token's emission is scored once,
//     from up to 11 weight rows, and every label pair is then weighed at
//     every position, where a dictionary takes one table step per byte
//     (at this repository's scale the tagger costs 6–7× the dictionary
//     per document: EXPERIMENTS.md, deviation 2);
//   - models are trained on Medline-profile text only ("all ML-based
//     methods used in this project employ models trained on Medline
//     abstracts since no other training data is available", §5), so on web
//     text the learned reliance on word shape makes the gene tagger label
//     three-letter acronyms as genes — the §4.3.2 false-positive explosion
//     the paper mitigates by filtering TLAs.
//
// Features are integers end to end. Each token's atoms — its lower-cased
// form, the form's 3-byte suffix and prefix, and its shape — are interned
// once per sentence as ids in the tagger's vocabulary, and each feature is
// a row of one weight table: its template's first row plus an atom's id,
// or for the word bigram the number training gave the pair. Only Train
// adds to the vocabulary and lays out the rows, so a trained Tagger may
// decode from many goroutines at once.
package crf

import (
	"strings"
	"unicode/utf8"

	"webtextie/internal/nlp"
	"webtextie/internal/textgen"
)

// Label is a BIO tag.
type Label int8

// The BIO label inventory.
const (
	O Label = iota
	B
	I
	numLabels
)

// Sentence is one training example.
type Sentence struct {
	Words  []string
	Labels []Label
}

// Config controls training.
type Config struct {
	// Epochs is the number of perceptron passes.
	Epochs int
	// UseShapeFeatures toggles the word-shape templates. Disabling them is
	// the ablation that removes the TLA failure mode (at a recall cost).
	UseShapeFeatures bool
}

// DefaultConfig returns the standard training setup.
func DefaultConfig() Config {
	return Config{Epochs: 5, UseShapeFeatures: true}
}

// Tagger is a trained linear-chain model for one entity class.
type Tagger struct {
	// Entity is the class this tagger extracts.
	Entity textgen.EntityType
	cfg    Config

	// vocab interns every atom string training saw, and affix holds, per
	// id, the suffix and prefix ids of a word of more than 3 bytes.
	vocab map[string]int32
	affix [][2]int32
	// pairs numbers the adjacent (previous, current) word pairs of the
	// training data, keyed by the two word ids.
	pairs map[uint64]int32
	// base is each template's first row in weights. A template over a word,
	// suffix or prefix has a row per vocabulary id, one over a shape a row
	// per shape code, "p=<s>" and "n=</s>" one row, and "pw" a row per pair.
	base [numTemplates]int32
	// weights holds a per-label weight vector per feature row; rows no
	// update touched stay zero.
	weights [][numLabels]float64
	// trans holds transition weights [prev][cur].
	trans [numLabels][numLabels]float64
}

// atoms are one token's interned feature atoms: the ids of its lower-cased
// form and the form's suffix and prefix, and its shape code. An id the
// vocabulary lacks is -1, and so are suf and pre for forms of 3 bytes or
// fewer.
type atoms struct{ w, suf, pre, sh int32 }

// step is one position's column of the Viterbi lattice.
type step struct {
	delta [numLabels]float64
	back  [numLabels]int8
}

// numShapes is the number of shape codes shape returns.
const numShapes = 9

// shape returns the code of w's coarse word shape (same inventory as the
// POS tagger's unknown-word model; BANNER uses comparable orthographic
// features).
func shape(w string) int32 {
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
		return 0 // num
	case hasDigit && hasUpper:
		return 1 // alnumU
	case hasDigit:
		return 2 // alnum
	case hasUpper && !hasLower && len(w) == 3:
		return 3 // tla
	case hasUpper && !hasLower && len(w) <= 5:
		return 4 // acro
	case hasUpper && !hasLower:
		return 5 // upper
	case hasUpper:
		return 6 // cap
	case hasHyphen:
		return 7 // hyph
	default:
		return 8 // lower
	}
}

// id returns the vocabulary id of b. An unseen b is added when intern is
// set (training only) and is -1 otherwise.
func (t *Tagger) id(b []byte, intern bool) int32 {
	if id, ok := t.vocab[string(b)]; ok {
		return id
	}
	if !intern {
		return -1
	}
	id := int32(len(t.vocab))
	t.vocab[string(b)] = id
	t.affix = append(t.affix, [2]int32{-1, -1})
	return id
}

// atomize computes w's atoms. ASCII is case-folded in a stack buffer; any
// byte ≥ 0x80 sends the whole token through strings.ToLower, which also
// turns invalid UTF-8 into U+FFFD. A known form's suffix and prefix were
// interned with it, so decoding looks up one string per known token.
func (t *Tagger) atomize(w string, intern bool) atoms {
	var buf [64]byte
	lw := buf[:0]
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= utf8.RuneSelf {
			lw = append(buf[:0], strings.ToLower(w)...)
			break
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		lw = append(lw, c)
	}
	a := atoms{w: t.id(lw, intern), suf: -1, pre: -1, sh: shape(w)}
	if n := len(lw); n > 3 {
		if a.w >= 0 && !intern {
			a.suf, a.pre = t.affix[a.w][0], t.affix[a.w][1]
			return a
		}
		a.suf = t.id(lw[n-3:], intern)
		a.pre = t.id(lw[:3], intern)
		if intern {
			t.affix[a.w] = [2]int32{a.suf, a.pre}
		}
	}
	return a
}

// maxKeys is the most templates active at one position, and numTemplates
// the number of templates.
const maxKeys, numTemplates = 11, 13

// pair returns the row number of the word pair (x, y) within template
// "pw", or -1 if either word is unknown or training never saw the pair.
func (t *Tagger) pair(x, y int32) int32 {
	if x < 0 || y < 0 {
		return -1
	}
	if id, ok := t.pairs[uint64(x)<<32|uint64(y)]; ok {
		return id
	}
	return -1
}

// keys appends the feature rows of position i in template order, leaving
// out those built from an atom the vocabulary lacks and word pairs training
// never saw. Atoms are one-to-one with the strings each template stands
// for, and so are rows, as long as no word is "<s>" or "</s>" and none
// holds a '|'.
func (t *Tagger) keys(dst []int32, a []atoms, i int) []int32 {
	add := func(tmpl int, x int32) {
		if x >= 0 {
			dst = append(dst, t.base[tmpl]+x)
		}
	}
	shapes := t.cfg.UseShapeFeatures
	c := a[i]
	add(0, c.w)   // "w=" + lw
	add(1, c.suf) // "suf3=" + lw[n-3:]
	add(2, c.pre) // "pre3=" + lw[:3]
	if shapes {
		add(3, c.sh) // "sh=" + shape(w)
	}
	if i > 0 {
		add(4, a[i-1].w)              // "p=" + p
		add(5, t.pair(a[i-1].w, c.w)) // "pw=" + p + "|" + lw
		if shapes {
			add(6, a[i-1].sh) // "psh=" + shape(p)
		}
	} else {
		add(7, 0) // "p=<s>"
	}
	if i+1 < len(a) {
		add(8, a[i+1].w) // "n=" + n
		if shapes {
			add(9, a[i+1].sh) // "nsh=" + shape(n)
		}
	} else {
		add(10, 0) // "n=</s>"
	}
	if i > 1 {
		add(11, a[i-2].w) // "pp=" + pp
	}
	if i+2 < len(a) {
		add(12, a[i+2].w) // "nn=" + nn
	}
	return dst
}

// score returns the per-label emission scores of position i, adding the
// weight rows in template order. A row no update touched adds +0, which
// leaves every sum as it was: no weight or partial sum is ever -0.
func (t *Tagger) score(a []atoms, i int) [numLabels]float64 {
	var kb [maxKeys]int32
	var s [numLabels]float64
	for _, r := range t.keys(kb[:0], a, i) {
		wv := &t.weights[r]
		for l := Label(0); l < numLabels; l++ {
			s[l] += wv[l]
		}
	}
	return s
}

// viterbi decodes the best label sequence of a sentence's atoms into out,
// with lat as the lattice; all three have the sentence's length.
func (t *Tagger) viterbi(a []atoms, lat []step, out []Label) {
	n := len(a)
	if n == 0 {
		return
	}
	const L = int(numLabels)
	lat[0].delta = t.score(a, 0)
	// I cannot start a sentence.
	lat[0].delta[I] -= 1000
	for i := 1; i < n; i++ {
		em := t.score(a, i)
		prev := &lat[i-1].delta
		for l := 0; l < L; l++ {
			best := prev[0] + t.trans[0][l]
			var arg int8
			for p := 1; p < L; p++ {
				if v := prev[p] + t.trans[p][l]; v > best {
					best = v
					arg = int8(p)
				}
			}
			// Structural constraint: I must follow B or I.
			if Label(l) == I && arg == int8(O) {
				// Recompute best among B, I only.
				best = prev[B] + t.trans[B][l]
				arg = int8(B)
				if v := prev[I] + t.trans[I][l]; v > best {
					best = v
					arg = int8(I)
				}
			}
			lat[i].delta[l] = best + em[Label(l)]
			lat[i].back[l] = arg
		}
	}
	bestL := 0
	for l := 1; l < L; l++ {
		if lat[n-1].delta[l] > lat[n-1].delta[bestL] {
			bestL = l
		}
	}
	for i := n - 1; i >= 0; i-- {
		out[i] = Label(bestL)
		if i > 0 {
			bestL = int(lat[i].back[bestL])
		}
	}
}

// Train fits a tagger for one entity class with the averaged structured
// perceptron. Training is deterministic.
func Train(entity textgen.EntityType, data []Sentence, cfg Config) *Tagger {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	t := &Tagger{Entity: entity, cfg: cfg, vocab: map[string]int32{}, pairs: map[uint64]int32{}}

	// Every sentence's atoms and word pairs, interned once: a new atom
	// changes no score.
	all := make([][]atoms, len(data))
	longest := 0
	for si, s := range data {
		a := make([]atoms, len(s.Words))
		for i, w := range s.Words {
			a[i] = t.atomize(w, true)
			if i == 0 {
				continue
			}
			k := uint64(a[i-1].w)<<32 | uint64(a[i].w)
			if _, ok := t.pairs[k]; !ok {
				t.pairs[k] = int32(len(t.pairs))
			}
		}
		all[si] = a
		longest = max(longest, len(s.Words))
	}
	lat, preds := make([]step, longest), make([]Label, longest)

	// The row layout, fixed now that the vocabulary and the pairs are.
	v := int32(len(t.vocab))
	rows := int32(0)
	for tmpl, n := range [numTemplates]int32{v, v, v, numShapes, v, int32(len(t.pairs)), numShapes, 1, v, numShapes, 1, v, v} {
		t.base[tmpl] = rows
		rows += n
	}
	t.weights = make([][numLabels]float64, rows)

	// Averaging accumulators.
	acc := make([][numLabels]float64, rows)
	var accTrans [numLabels][numLabels]float64
	steps := 1.0

	update := func(a []atoms, i int, l Label, delta float64) {
		var kb [maxKeys]int32
		for _, r := range t.keys(kb[:0], a, i) {
			t.weights[r][l] += delta
			acc[r][l] += delta * steps
		}
	}

	for ep := 0; ep < cfg.Epochs; ep++ {
		for si, s := range data {
			n := len(s.Words)
			if n == 0 {
				continue
			}
			a, pred := all[si], preds[:n]
			t.viterbi(a, lat[:n], pred)
			for i := range s.Words {
				if pred[i] == s.Labels[i] {
					continue
				}
				update(a, i, s.Labels[i], +1)
				update(a, i, pred[i], -1)
			}
			for i := 1; i < n; i++ {
				gp, gc := s.Labels[i-1], s.Labels[i]
				pp, pc := pred[i-1], pred[i]
				if gp == pp && gc == pc {
					continue
				}
				t.trans[gp][gc]++
				t.trans[pp][pc]--
				accTrans[gp][gc] += steps
				accTrans[pp][pc] -= steps
			}
			steps++
		}
	}

	// Average: w_avg = w - acc/steps.
	for r := range t.weights {
		for l := Label(0); l < numLabels; l++ {
			t.weights[r][l] -= acc[r][l] / steps
		}
	}
	for p := Label(0); p < numLabels; p++ {
		for c := Label(0); c < numLabels; c++ {
			t.trans[p][c] -= accTrans[p][c] / steps
		}
	}
	return t
}

// Match is an extracted mention.
type Match struct {
	// Start/End are byte offsets into the input text.
	Start, End int
	// Surface is the mention text.
	Surface string
}

// appendMatches appends the mentions of one labelled token sequence to out.
func appendMatches(out []Match, tokens []nlp.TokenSpan, labels []Label) []Match {
	var cur Match
	open := false
	for i, tok := range tokens {
		if i >= len(labels) {
			break
		}
		switch {
		case labels[i] == B || (labels[i] == I && !open):
			if open {
				out = append(out, cur)
			}
			cur, open = Match{Start: tok.Start, End: tok.End}, true
		case labels[i] == I:
			cur.End = tok.End
		case open:
			out = append(out, cur)
			open = false
		}
	}
	if open {
		out = append(out, cur)
	}
	return out
}

// Extract runs sentence splitting, tokenization, decoding, and span
// assembly over raw text. Its scratch is allocated once, sized to the
// longest sentence.
func (t *Tagger) Extract(text string) []Match {
	_, sentToks := nlp.SentenceTokens(text)
	longest := 0
	for _, toks := range sentToks {
		longest = max(longest, len(toks))
	}
	a, lat, labels := make([]atoms, longest), make([]step, longest), make([]Label, longest)
	var out []Match
	for _, toks := range sentToks {
		n := len(toks)
		for i, tk := range toks {
			a[i] = t.atomize(tk.Text, false)
		}
		t.viterbi(a[:n], lat[:n], labels[:n])
		first := len(out)
		out = appendMatches(out, toks, labels[:n])
		for i := first; i < len(out); i++ {
			out[i].Surface = text[out[i].Start:out[i].End]
		}
	}
	return out
}

// TrainingSentences converts generator gold documents into BIO training
// data for one entity class — the "trained on Medline abstracts" setup.
func TrainingSentences(docs []*textgen.Doc, entity textgen.EntityType) []Sentence {
	var out []Sentence
	for _, d := range docs {
		for _, s := range d.Sentences {
			sent := Sentence{
				Words:  make([]string, len(s.Tokens)),
				Labels: make([]Label, len(s.Tokens)),
			}
			for i, tok := range s.Tokens {
				sent.Words[i] = tok.Text
				switch {
				case tok.Ent != entity:
					sent.Labels[i] = O
				case tok.First:
					sent.Labels[i] = B
				default:
					sent.Labels[i] = I
				}
			}
			out = append(out, sent)
		}
	}
	return out
}
