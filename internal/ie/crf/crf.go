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
// The classes are trained as one Model: the training words do not depend
// on the class, so the classes share one vocabulary and one row layout,
// and each feature row holds a weight column per class. Features are
// integers end to end. Each token's atoms — its lower-cased form, the
// form's 3-byte suffix and prefix, and its shape — are ids in the model's
// vocabulary, and each feature is a row of one weight table: its
// template's first row plus an atom's id, or for the word bigram the
// number training gave the pair. Decode reads the sentences a document was
// already tokenized into, atomizes each token once, looks each position's
// rows up once and adds them to every class's emissions, skipping rows
// that are zero in every class, then runs one Viterbi pass per class. A
// Tagger is one class's view, whose Extract tokenizes raw text itself.
// Only Train adds to the vocabulary and lays out the rows, so a trained
// Model may decode from many goroutines at once.
package crf

import (
	"slices"
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

// Sentence is one training example: its words and, per class trained, the
// words' labels.
type Sentence struct {
	Words []string
	// Labels[k] labels Words for the k-th class Train is given.
	Labels [][]Label
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

// Model is the trained linear-chain models of several entity classes over
// the same training words: one vocabulary and row layout, and per feature
// row a weight vector for every class.
type Model struct {
	// Entities are the classes, in the order of every per-class result.
	Entities []textgen.EntityType
	cfg      Config

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
	// weights holds class k's per-label weight vector of feature row r at
	// r*len(Entities)+k; rows no update touched stay zero. dead marks, once
	// training is done, the rows whose weights are zero in every class;
	// while it runs, none.
	weights [][numLabels]float64
	dead    []bool
	// trans holds each class's transition weights [prev][cur].
	trans [][numLabels][numLabels]float64
}

// Tagger is the model of one entity class.
type Tagger struct {
	// Entity is the class this tagger extracts.
	Entity textgen.EntityType
	m      *Model
	k      int
}

// Tagger returns the model's view of class t, one of its Entities.
func (m *Model) Tagger(t textgen.EntityType) *Tagger {
	return &Tagger{Entity: t, m: m, k: slices.Index(m.Entities, t)}
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
func (m *Model) id(b []byte, intern bool) int32 {
	if id, ok := m.vocab[string(b)]; ok {
		return id
	}
	if !intern {
		return -1
	}
	id := int32(len(m.vocab))
	m.vocab[string(b)] = id
	m.affix = append(m.affix, [2]int32{-1, -1})
	return id
}

// atomize computes w's atoms. ASCII is case-folded in a stack buffer; any
// byte ≥ 0x80 sends the whole token through strings.ToLower, which also
// turns invalid UTF-8 into U+FFFD. A known form's suffix and prefix were
// interned with it, so decoding looks up one string per known token.
func (m *Model) atomize(w string, intern bool) atoms {
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
	a := atoms{w: m.id(lw, intern), suf: -1, pre: -1, sh: shape(w)}
	if n := len(lw); n > 3 {
		if a.w >= 0 && !intern {
			a.suf, a.pre = m.affix[a.w][0], m.affix[a.w][1]
			return a
		}
		a.suf = m.id(lw[n-3:], intern)
		a.pre = m.id(lw[:3], intern)
		if intern {
			m.affix[a.w] = [2]int32{a.suf, a.pre}
		}
	}
	return a
}

// maxKeys is the most templates active at one position, and numTemplates
// the number of templates.
const maxKeys, numTemplates = 11, 13

// pair returns the row number of the word pair (x, y) within template
// "pw", or -1 if either word is unknown or training never saw the pair.
func (m *Model) pair(x, y int32) int32 {
	if x < 0 || y < 0 {
		return -1
	}
	if id, ok := m.pairs[uint64(x)<<32|uint64(y)]; ok {
		return id
	}
	return -1
}

// keys appends the feature rows of position i in template order, leaving
// out those built from an atom the vocabulary lacks and word pairs training
// never saw. Atoms are one-to-one with the strings each template stands
// for, and so are rows, as long as no word is "<s>" or "</s>" and none
// holds a '|'.
func (m *Model) keys(dst []int32, a []atoms, i int) []int32 {
	add := func(tmpl int, x int32) {
		if x >= 0 {
			dst = append(dst, m.base[tmpl]+x)
		}
	}
	shapes := m.cfg.UseShapeFeatures
	c := a[i]
	add(0, c.w)   // "w=" + lw
	add(1, c.suf) // "suf3=" + lw[n-3:]
	add(2, c.pre) // "pre3=" + lw[:3]
	if shapes {
		add(3, c.sh) // "sh=" + shape(w)
	}
	if i > 0 {
		add(4, a[i-1].w)              // "p=" + p
		add(5, m.pair(a[i-1].w, c.w)) // "pw=" + p + "|" + lw
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

// label decodes the sentence of atoms a with the classes [lo, hi) into
// out, class lo+j's labels at out[j*stride:]. Each position's weight rows
// are read once, in template order, and added to every class's emission,
// so each class's sums are the ones a model of that class alone adds. A
// row that is zero in every class is skipped: it would add +0, which
// leaves every sum as it was, as no weight or partial sum is ever -0. A
// Viterbi pass per class follows. em and lat are scratch of (hi-lo)*len(a)
// and len(a) entries.
func (m *Model) label(a []atoms, lo, hi int, em [][numLabels]float64, lat []step, out []Label, stride int) {
	n, nc := len(a), len(m.Entities)
	clear(em[:(hi-lo)*n])
	var kb [maxKeys]int32
	for i := range a {
		for _, r := range m.keys(kb[:0], a, i) {
			if m.dead[r] {
				continue
			}
			for j, wv := range m.weights[int(r)*nc+lo : int(r)*nc+hi] {
				e := &em[j*n+i]
				e[O], e[B], e[I] = e[O]+wv[O], e[B]+wv[B], e[I]+wv[I]
			}
		}
	}
	for j := range hi - lo {
		viterbi(&m.trans[lo+j], em[j*n:(j+1)*n], lat[:n], out[j*stride:j*stride+n])
	}
}

// viterbi decodes the best label sequence of a sentence from one class's
// transitions and emissions em into out, with lat as the lattice; all
// three have the sentence's length.
func viterbi(trans *[numLabels][numLabels]float64, em [][numLabels]float64, lat []step, out []Label) {
	n := len(em)
	if n == 0 {
		return
	}
	const L = int(numLabels)
	lat[0].delta = em[0]
	// I cannot start a sentence.
	lat[0].delta[I] -= 1000
	for i := 1; i < n; i++ {
		prev := &lat[i-1].delta
		for l := 0; l < L; l++ {
			best := prev[0] + trans[0][l]
			var arg int8
			for p := 1; p < L; p++ {
				if v := prev[p] + trans[p][l]; v > best {
					best = v
					arg = int8(p)
				}
			}
			// Structural constraint: I must follow B or I.
			if Label(l) == I && arg == int8(O) {
				// Recompute best among B, I only.
				best = prev[B] + trans[B][l]
				arg = int8(B)
				if v := prev[I] + trans[I][l]; v > best {
					best = v
					arg = int8(I)
				}
			}
			lat[i].delta[l] = best + em[i][l]
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

// Train fits one model per class with the averaged structured perceptron,
// entities[k] on the labels Labels[k] of every sentence, over one layout
// interned from the words. The classes' columns never meet, so class k's
// weights and transitions are bit for bit those of training it alone.
// Training is deterministic.
func Train(entities []textgen.EntityType, data []Sentence, cfg Config) *Model {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	nc := len(entities)
	m := &Model{Entities: entities, cfg: cfg, vocab: map[string]int32{}, pairs: map[uint64]int32{},
		trans: make([][numLabels][numLabels]float64, nc)}

	// Every sentence's atoms and word pairs, interned once: a new atom
	// changes no score.
	all := make([][]atoms, len(data))
	longest := 0
	for si, s := range data {
		a := make([]atoms, len(s.Words))
		for i, w := range s.Words {
			a[i] = m.atomize(w, true)
			if i == 0 {
				continue
			}
			k := uint64(a[i-1].w)<<32 | uint64(a[i].w)
			if _, ok := m.pairs[k]; !ok {
				m.pairs[k] = int32(len(m.pairs))
			}
		}
		all[si] = a
		longest = max(longest, len(s.Words))
	}
	em, lat, preds := make([][numLabels]float64, nc*longest), make([]step, longest), make([]Label, nc*longest)

	// The row layout, fixed now that the vocabulary and the pairs are.
	v := int32(len(m.vocab))
	rows := int32(0)
	for tmpl, n := range [numTemplates]int32{v, v, v, numShapes, v, int32(len(m.pairs)), numShapes, 1, v, numShapes, 1, v, v} {
		m.base[tmpl] = rows
		rows += n
	}
	m.weights, m.dead = make([][numLabels]float64, int(rows)*nc), make([]bool, rows)

	// Averaging accumulators.
	acc := make([][numLabels]float64, len(m.weights))
	accTrans := make([][numLabels][numLabels]float64, nc)
	steps := 1.0

	// Each sentence is decoded with every class's current weights, then
	// each class's mistakes update its own column.
	for ep := 0; ep < cfg.Epochs; ep++ {
		for si, s := range data {
			n := len(s.Words)
			if n == 0 {
				continue
			}
			a := all[si]
			m.label(a, 0, nc, em, lat, preds, n)
			for k := range nc {
				gl, pl := s.Labels[k], preds[k*n:(k+1)*n]
				for i := range a {
					if pl[i] == gl[i] {
						continue
					}
					var kb [maxKeys]int32
					for _, r := range m.keys(kb[:0], a, i) {
						wv, av := &m.weights[int(r)*nc+k], &acc[int(r)*nc+k]
						wv[gl[i]]++
						av[gl[i]] += steps
						wv[pl[i]]--
						av[pl[i]] -= steps
					}
				}
				for i := 1; i < n; i++ {
					gp, gc := gl[i-1], gl[i]
					pp, pc := pl[i-1], pl[i]
					if gp == pp && gc == pc {
						continue
					}
					m.trans[k][gp][gc]++
					m.trans[k][pp][pc]--
					accTrans[k][gp][gc] += steps
					accTrans[k][pp][pc] -= steps
				}
			}
			steps++
		}
	}

	// Average: w_avg = w - acc/steps.
	for r := range m.weights {
		for l := Label(0); l < numLabels; l++ {
			m.weights[r][l] -= acc[r][l] / steps
		}
	}
	for k := range m.trans {
		for p := Label(0); p < numLabels; p++ {
			for c := Label(0); c < numLabels; c++ {
				m.trans[k][p][c] -= accTrans[k][p][c] / steps
			}
		}
	}

	// Only the rows an update touched can be non-zero, a few per cent of
	// them: decoding loads no other row, which would add +0.
	for r := range m.dead {
		m.dead[r] = !slices.ContainsFunc(m.weights[r*nc:(r+1)*nc], func(wv [numLabels]float64) bool { return wv != [numLabels]float64{} })
	}
	return m
}

// Match is an extracted mention.
type Match struct {
	// Start/End are byte offsets into the input text.
	Start, End int
	// Surface is the mention text.
	Surface string
}

// appendMatches appends the mentions of one labelled token sequence of
// text to out.
func appendMatches(out []Match, text string, tokens []nlp.TokenSpan, labels []Label) []Match {
	first, open := len(out), false
	for i, tok := range tokens {
		switch l := labels[i]; {
		case l == B || (l == I && !open):
			out, open = append(out, Match{Start: tok.Start, End: tok.End}), true
		case l == I:
			out[len(out)-1].End = tok.End
		default:
			open = false
		}
	}
	for i := first; i < len(out); i++ {
		out[i].Surface = text[out[i].Start:out[i].End]
	}
	return out
}

// Decode labels text's sentences, tokenized as nlp.SentenceTokens
// tokenizes them, with every class at once and returns each class's
// matches in Entities order. Each token is atomized once and each
// position's weight rows are looked up once for all classes.
func (m *Model) Decode(text string, sents [][]nlp.TokenSpan) [][]Match {
	return m.decode(text, sents, 0, len(m.Entities))
}

// Extract runs sentence splitting, tokenization, decoding, and span
// assembly over raw text.
func (t *Tagger) Extract(text string) []Match {
	_, sents := nlp.SentenceTokens(text)
	return t.m.decode(text, sents, t.k, t.k+1)[0]
}

// decode is Decode for the classes [lo, hi). Its scratch is allocated
// once, sized to the longest sentence, and all classes' matches share one
// slice, sized by the labels that are not O.
func (m *Model) decode(text string, sents [][]nlp.TokenSpan, lo, hi int) [][]Match {
	nc, total, longest := hi-lo, 0, 0
	for _, toks := range sents {
		total += len(toks)
		longest = max(longest, len(toks))
	}
	a, em, lat := make([]atoms, longest), make([][numLabels]float64, nc*longest), make([]step, longest)
	// Class lo+j's labels of the whole document start at j*total.
	labels := make([]Label, nc*total)
	off := 0
	for _, toks := range sents {
		for i, tk := range toks {
			a[i] = m.atomize(tk.Text, false)
		}
		m.label(a[:len(toks)], lo, hi, em, lat, labels[off:], total)
		off += len(toks)
	}
	tagged := 0
	for _, l := range labels {
		if l != O {
			tagged++
		}
	}
	all, res := make([]Match, 0, tagged), make([][]Match, nc)
	for j := range res {
		first, off := len(all), j*total
		for _, toks := range sents {
			all = appendMatches(all, text, toks, labels[off:off+len(toks)])
			off += len(toks)
		}
		res[j] = all[first:len(all):len(all)]
	}
	return res
}

// TrainingSentences converts generator gold documents into BIO training
// data for the given entity classes — the "trained on Medline abstracts"
// setup.
func TrainingSentences(docs []*textgen.Doc, entities ...textgen.EntityType) []Sentence {
	var out []Sentence
	for _, d := range docs {
		for _, s := range d.Sentences {
			sent := Sentence{Words: make([]string, len(s.Tokens)), Labels: make([][]Label, len(entities))}
			for i, tok := range s.Tokens {
				sent.Words[i] = tok.Text
			}
			for k, e := range entities {
				sent.Labels[k] = make([]Label, len(s.Tokens))
				for i, tok := range s.Tokens {
					if tok.Ent == e {
						sent.Labels[k][i] = I
						if tok.First {
							sent.Labels[k][i] = B
						}
					}
				}
			}
			out = append(out, sent)
		}
	}
	return out
}
