package textgen

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"webtextie/internal/rng"
)

// Token is one generated token with its gold annotations.
type Token struct {
	// Text is the surface form.
	Text string
	// Tag is the gold part-of-speech tag.
	Tag string
	// Ent is the entity class if this token is part of a mention.
	Ent EntityType
	// First marks the first token of a multi-token mention (BIO "B").
	First bool
	// Pron is the pronoun class +1 if this token is a pronoun, else 0.
	Pron int
}

// Sentence is a generated sentence with gold structure.
type Sentence struct {
	Tokens []Token
	// Degenerate marks navigation-residue fragments with no sentence
	// structure (no terminal period, arbitrary length) — the inputs that
	// destabilize POS taggers on web text (Fig 3a).
	Degenerate bool
	// Negated reports whether the sentence contains a negation particle.
	Negated bool
	// RelSubjObj marks sentences whose subject and object are both entity
	// mentions connected by the main verb — a gold entity relation.
	RelSubjObj bool
	// RelVerb is the connecting verb's surface form when RelSubjObj holds.
	RelVerb string
}

// Mention is a gold entity mention with character offsets into Doc.Text.
type Mention struct {
	Type  EntityType
	Name  string
	Entry *Entry
	// Start/End are byte offsets into the rendered document text,
	// half-open [Start, End).
	Start, End int
	// Sentence is the index of the containing sentence.
	Sentence int
}

// Doc is one generated document: gold token structure plus rendered text.
type Doc struct {
	ID   string
	Kind CorpusKind
	// Sentences holds the gold tokens; it is nil on a LeanDoc.
	Sentences []Sentence
	// Text is the rendered plain text (net text for web pages; the HTML
	// wrapper is added by synthweb).
	Text string
	// SentSpans holds [start, end) byte offsets of each sentence in Text.
	SentSpans [][2]int
	// Mentions are the gold entity mentions in Text order.
	Mentions []Mention
	// Relations are the gold subject-verb-object entity relations.
	Relations []Relation
}

// Relation is a gold binary relation between two entity mentions connected
// by the sentence's main verb (the "relationships between entities" the IE
// operator package annotates, §3.1).
type Relation struct {
	// Sentence is the index of the carrying sentence.
	Sentence int
	// A and B index into Doc.Mentions (subject and object).
	A, B int
	// Verb is the connecting verb's surface form.
	Verb string
	// Negated reports whether the relation is under negation.
	Negated bool
}

// Generator produces documents following per-corpus profiles over a shared
// lexicon. A Generator is safe for concurrent use as long as each call gets
// its own *rng.RNG.
type Generator struct {
	Lex      *Lexicon
	Profiles map[CorpusKind]*Profile

	// Per-(corpus, class) name pools: a corpus-specific Zipf over a
	// corpus-specific permutation of the class's entries, split into
	// in-dictionary and out-of-dictionary sub-pools. The permutations give
	// each corpus its own popularity ranking, which is what produces the
	// partial overlaps of Fig 8 and the JSD separations of §4.3.2.
	pools map[CorpusKind]map[EntityType]*namePool
}

type namePool struct {
	inDict  []*Entry
	oov     []*Entry
	zipfIn  *rng.Zipf
	zipfOOV *rng.Zipf
}

// NewGenerator builds a generator. The seed controls the per-corpus name
// permutations (not the per-document randomness, which callers supply).
func NewGenerator(seed uint64, lex *Lexicon, profiles map[CorpusKind]*Profile) *Generator {
	g := &Generator{Lex: lex, Profiles: profiles, pools: map[CorpusKind]map[EntityType]*namePool{}}
	base := rng.New(seed)
	for _, kind := range CorpusKinds {
		g.pools[kind] = map[EntityType]*namePool{}
		for _, t := range EntityTypes {
			r := base.Split(kind.String() + "/" + t.String())
			var inDict, oov []*Entry
			for _, e := range lex.Entries[t] {
				if e.InDictionary {
					inDict = append(inDict, e)
				} else {
					oov = append(oov, e)
				}
			}
			// The three scientific corpora (Relevant web, Medline, PMC)
			// share one "biomedical mainstream" popularity ranking with a
			// mild per-corpus perturbation; the Irrelevant corpus gets an
			// independent ranking. This is what makes the relevant crawl
			// distributionally closer to the literature than to the
			// rejected pages (§4.3.2: JSD(rel,medl) 0.29-0.36 vs
			// JSD(rel,irrel) 0.45-0.65).
			if kind == Irrelevant {
				inDict = permute(r, inDict)
				oov = permute(r, oov)
			} else {
				sci := rng.New(seed).Split("sci-base/" + t.String())
				inDict = permute(sci, inDict)
				oov = permute(rng.New(seed).Split("sci-base-oov/"+t.String()), oov)
				perturb(r, inDict, 0.12)
				perturb(r, oov, 0.12)
			}
			p := profiles[kind]
			pool := &namePool{inDict: inDict, oov: oov}
			if len(inDict) > 0 {
				pool.zipfIn = rng.NewZipf(r.Split("zipf-in"), len(inDict), p.ZipfExponent)
			}
			if len(oov) > 0 {
				pool.zipfOOV = rng.NewZipf(r.Split("zipf-oov"), len(oov), p.ZipfExponent)
			}
			g.pools[kind][t] = pool
		}
	}
	return g
}

func permute(r *rng.RNG, es []*Entry) []*Entry {
	out := make([]*Entry, len(es))
	copy(out, es)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// perturb applies local swaps (within a small window), creating a ranking
// that correlates with the input order — in particular the head of the
// popularity ranking stays at the head, so corpora sharing a base ranking
// agree on their most frequent names.
func perturb(r *rng.RNG, es []*Entry, frac float64) {
	n := int(float64(len(es)) * frac)
	if len(es) < 2 {
		return
	}
	for i := 0; i < n; i++ {
		a := r.Intn(len(es))
		b := a + r.Intn(7) - 3
		if b < 0 || b >= len(es) {
			continue
		}
		es[a], es[b] = es[b], es[a]
	}
}

// pickEntry selects an entity entry for a mention in the given corpus.
func (g *Generator) pickEntry(r *rng.RNG, kind CorpusKind, t EntityType) *Entry {
	p := g.Profiles[kind]
	pool := g.pools[kind][t]
	if (r.Bool(p.OOVEntityShare) && pool.zipfOOV != nil) || pool.zipfIn == nil {
		if pool.zipfOOV == nil {
			return pool.inDict[pool.zipfIn.Draw()]
		}
		// The Zipf is deterministic per pool but shared; draw an index from
		// the caller's RNG instead to stay reproducible per document.
		return pool.oov[zipfDraw(r, len(pool.oov), p.ZipfExponent)]
	}
	return pool.inDict[zipfDraw(r, len(pool.inDict), p.ZipfExponent)]
}

// zipfDraw is a cheap inverse-CDF-free Zipf-ish draw: it raises a uniform
// to a power, which concentrates mass on small ranks with skew increasing
// in s. Exactness is irrelevant; we only need a long-tailed rank choice
// that is a pure function of the caller's RNG state.
func zipfDraw(r *rng.RNG, n int, s float64) int {
	u := r.Float64()
	// u^k maps uniform mass toward 0; k grows with s.
	k := int(1 + 2*s + 0.5)
	x := u
	for i := 0; i < k; i++ {
		x *= u
	}
	idx := int(x * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Doc generates one document of the given corpus kind, with its gold
// tokens.
func (g *Generator) Doc(r *rng.RNG, kind CorpusKind, id string) *Doc {
	return g.doc(r, kind, id, true)
}

// LeanDoc generates the document Doc would from the same draws, but
// without its tokens: Sentences is nil, and Text, SentSpans, Mentions and
// Relations are Doc's.
func (g *Generator) LeanDoc(r *rng.RNG, kind CorpusKind, id string) *Doc {
	return g.doc(r, kind, id, false)
}

// docScratch is one document's generation scratch: the sentence being
// generated, every sentence's tokens back to back with each one's end
// index, and the sentences.
type docScratch struct {
	sent, flat []Token
	ends       []int
	sents      []Sentence
}

// scratchPool holds docScratch values: shard goroutines generate at once.
var scratchPool = sync.Pool{New: func() any { return new(docScratch) }}

// doc generates and renders a document in pooled scratch, then copies the
// tokens out, in one token slice and one sentence slice, if tokens is set.
func (g *Generator) doc(r *rng.RNG, kind CorpusKind, id string, tokens bool) *Doc {
	p := g.Profiles[kind]
	nSent := int(r.LogNorm(p.SentencesPerDoc.Mu, p.SentencesPerDoc.Sigma) + 0.5)
	if nSent < 1 {
		nSent = 1
	}
	sc := scratchPool.Get().(*docScratch)
	defer scratchPool.Put(sc)
	sc.flat, sc.ends, sc.sents = sc.flat[:0], sc.ends[:0], sc.sents[:0]
	for range nSent {
		s := g.sentence(r, p, sc.sent[:0])
		sc.sent = s.Tokens
		capitalizeSentence(&s)
		sc.flat = append(sc.flat, s.Tokens...)
		sc.ends = append(sc.ends, len(sc.flat))
		sc.sents = append(sc.sents, s)
	}
	d := &Doc{ID: id, Kind: kind, Sentences: sc.sents}
	setTokens(d.Sentences, sc.flat, sc.ends)
	g.render(d)
	d.Sentences = nil
	if tokens {
		d.Sentences = slices.Clone(sc.sents)
		setTokens(d.Sentences, slices.Clone(sc.flat), sc.ends)
	}
	return d
}

// setTokens points each sentence at its tokens in flat, capped so that an
// append cannot reach the next sentence's.
func setTokens(sents []Sentence, flat []Token, ends []int) {
	start := 0
	for i, end := range ends {
		sents[i].Tokens = flat[start:end:end]
		start = end
	}
}

// capitalizeSentence upper-cases the first letter of the sentence unless
// the sentence opens with an entity mention (gene symbols and drug names
// keep their canonical case). Without this, sentence boundary detection
// would reject every boundary ("lowercase after period" is a standard
// non-boundary signal), which is not how real prose behaves.
func capitalizeSentence(s *Sentence) {
	if len(s.Tokens) == 0 || s.Degenerate {
		return
	}
	t := &s.Tokens[0]
	if t.Ent != None || t.Text == "" {
		return
	}
	if up, ok := capitalized[t.Text]; ok {
		t.Text = up
	} else if c := t.Text[0]; c >= 'a' && c <= 'z' {
		t.Text = string(c-32) + t.Text[1:]
	}
}

// capitalized maps each word a sentence can open with (a subject pronoun,
// a determiner, or an entity frame's first word) to its capitalized form.
var capitalized = func() map[string]string {
	m := map[string]string{}
	for _, ws := range [][]string{pronounWords[PronSubject], determiners, {"treated", "patients"}} {
		for _, w := range ws {
			m[w] = string(w[0]-32) + w[1:]
		}
	}
	return m
}()

// sentence generates one sentence according to the profile, appending its
// tokens to buf.
func (g *Generator) sentence(r *rng.RNG, p *Profile, buf []Token) Sentence {
	if r.Bool(p.DegenerateRate) {
		return g.degenerate(r, buf)
	}
	s := Sentence{Tokens: buf}
	target := int(r.LogNorm(p.TokensPerSentence.Mu, p.TokensPerSentence.Sigma) + 0.5)
	if target < 5 {
		target = 5
	}

	// Decide the sentence's special content up front.
	negate := r.Bool(p.NegationRate)
	var pronBuf [NumPronounClasses]PronounClass
	prons := pronBuf[:0]
	for c := PronounClass(0); c < PronounClass(NumPronounClasses); c++ {
		if r.Bool(p.PronounRate[c]) {
			prons = append(prons, c)
		}
	}
	var entBuf [8]EntityType
	ents := entBuf[:0]
	for _, t := range EntityTypes {
		for i := 0; i < r.Poisson(p.EntityRate[t]); i++ {
			ents = append(ents, t)
		}
	}
	nTLA := 0
	if r.Bool(p.TLARate) {
		nTLA = 1
	}

	// Subject noun phrase.
	subjectEntity := false
	if len(prons) > 0 && prons[0] == PronSubject {
		s.add(g.pronoun(r, PronSubject))
		prons = prons[1:]
	} else if len(ents) > 0 {
		g.entityNP(r, p, &s, ents[0])
		ents = ents[1:]
		subjectEntity = true
	} else {
		g.nounPhrase(r, p, &s)
	}

	// Verb phrase, with optional negation: tokens [vpStart, vpEnd).
	vpStart := len(s.Tokens)
	g.verbPhrase(r, p, &s, negate)
	vpEnd := len(s.Tokens)
	s.Negated = negate

	// Object: entity or plain NP. An entity subject and an entity object
	// joined by the main verb form a gold relation.
	if len(ents) > 0 {
		g.entityNP(r, p, &s, ents[0])
		ents = ents[1:]
		if subjectEntity {
			s.RelSubjObj = true
			s.RelVerb = mainVerb(s.Tokens[vpStart:vpEnd])
		}
	} else {
		g.nounPhrase(r, p, &s)
	}

	// Pad with prepositional phrases, remaining entities, pronouns, TLAs
	// and optional relative clauses until the token budget is spent.
	for len(s.Tokens) < target || len(ents) > 0 || len(prons) > 0 || nTLA > 0 {
		switch {
		case len(ents) > 0:
			s.add(Token{Text: rng.Pick(r, prepositions), Tag: TagIN})
			g.entityNP(r, p, &s, ents[0])
			ents = ents[1:]
		case len(prons) > 0:
			g.pronounPhrase(r, p, &s, prons[0])
			prons = prons[1:]
		case nTLA > 0:
			// A non-entity acronym. Half the time in a noun frame ("the
			// FAQ page"), half bare after a preposition ("of FAQ") — the
			// bare form is indistinguishable from a weak-context gene
			// mention, which is why abstract-trained taggers tag TLAs as
			// genes on web text (§4.3.2).
			if r.Bool(0.5) {
				s.add(Token{Text: rng.Pick(r, determiners), Tag: TagDT})
				s.add(Token{Text: RandomTLA(r), Tag: TagNNP})
				s.add(Token{Text: rng.Pick(r, p.register.nouns), Tag: TagNN})
			} else {
				s.add(Token{Text: rng.Pick(r, prepositions), Tag: TagIN})
				s.add(Token{Text: RandomTLA(r), Tag: TagNNP})
			}
			nTLA--
		case r.Bool(0.25):
			// Relative clause.
			s.add(Token{Text: ",", Tag: TagComma}, Token{Text: "which", Tag: TagWDT})
			g.verbPhrase(r, p, &s, false)
			g.nounPhrase(r, p, &s)
		default:
			s.add(Token{Text: rng.Pick(r, prepositions), Tag: TagIN})
			g.nounPhrase(r, p, &s)
		}
		if len(s.Tokens) > target+20 {
			break
		}
	}

	// Optional parenthesized insert before the final period.
	if r.Bool(p.ParenRate) {
		s.add(Token{Text: "(", Tag: TagLRB})
		for w := range strings.FieldsSeq(rng.Pick(r, parenFillers)) {
			tag := TagSYM
			if w[0] >= 'a' && w[0] <= 'z' {
				tag = TagNN
			} else if w[0] >= '0' && w[0] <= '9' {
				tag = TagCD
			}
			s.add(Token{Text: w, Tag: tag})
		}
		s.add(Token{Text: ")", Tag: TagRRB})
	}
	s.add(Token{Text: ".", Tag: TagPeriod})
	return s
}

func (s *Sentence) add(ts ...Token) { s.Tokens = append(s.Tokens, ts...) }

// mainVerb returns the last verb-tagged token of a verb phrase.
func mainVerb(vp []Token) string {
	for i := len(vp) - 1; i >= 0; i-- {
		if strings.HasPrefix(vp[i].Tag, "VB") {
			return vp[i].Text
		}
	}
	if len(vp) > 0 {
		return vp[len(vp)-1].Text
	}
	return ""
}

func (g *Generator) pronoun(r *rng.RNG, c PronounClass) Token {
	tag := TagPRP
	if c == PronPossessive {
		tag = TagPRPS
	} else if c == PronDemonstrative {
		tag = TagDT
	} else if c == PronRelative {
		tag = TagWDT
	}
	return Token{Text: rng.Pick(r, pronounWords[c]), Tag: tag, Pron: int(c) + 1}
}

// pronounPhrase embeds a pronoun of class c in a small grammatical frame.
func (g *Generator) pronounPhrase(r *rng.RNG, p *Profile, s *Sentence, c PronounClass) {
	pron := g.pronoun(r, c)
	switch c {
	case PronPossessive, PronDemonstrative:
		s.add(Token{Text: rng.Pick(r, prepositions), Tag: TagIN}, pron,
			Token{Text: rng.Pick(r, p.register.nouns), Tag: TagNN})
	case PronRelative:
		vb := rng.Pick(r, p.register.verbs)
		s.add(Token{Text: ",", Tag: TagComma}, pron,
			Token{Text: vb[1], Tag: TagVBZ},
			Token{Text: rng.Pick(r, determiners), Tag: TagDT},
			Token{Text: rng.Pick(r, p.register.nouns), Tag: TagNN})
	default:
		s.add(Token{Text: rng.Pick(r, prepositions), Tag: TagIN}, pron)
	}
}

func (g *Generator) nounPhrase(r *rng.RNG, p *Profile, s *Sentence) {
	s.add(Token{Text: rng.Pick(r, determiners), Tag: TagDT})
	if r.Bool(0.5) {
		s.add(Token{Text: rng.Pick(r, p.register.adjectives), Tag: TagJJ})
	}
	i := r.Intn(len(p.register.nouns))
	if r.Bool(0.25) {
		s.add(Token{Text: p.register.plurals[i], Tag: TagNNS})
	} else {
		s.add(Token{Text: p.register.nouns[i], Tag: TagNN})
	}
}

func (g *Generator) verbPhrase(r *rng.RNG, p *Profile, s *Sentence, negate bool) {
	if r.Bool(0.25) {
		s.add(Token{Text: rng.Pick(r, p.register.adverbs), Tag: TagRB})
	}
	if negate {
		switch r.Intn(3) {
		case 0:
			s.add(Token{Text: "did", Tag: TagVBD}, Token{Text: "not", Tag: TagNEG},
				Token{Text: rng.Pick(r, p.register.verbs)[0], Tag: TagVB})
		case 1:
			s.add(Token{Text: "neither", Tag: TagNEG},
				Token{Text: rng.Pick(r, p.register.verbsPast), Tag: TagVBD},
				Token{Text: "nor", Tag: TagNEG},
				Token{Text: rng.Pick(r, p.register.verbsPast), Tag: TagVBD})
		default:
			s.add(Token{Text: "was", Tag: TagVBD}, Token{Text: "not", Tag: TagNEG},
				Token{Text: rng.Pick(r, p.register.verbsPast), Tag: TagVBN})
		}
		return
	}
	if r.Bool(0.5) {
		s.add(Token{Text: rng.Pick(r, p.register.verbs)[1], Tag: TagVBZ})
	} else {
		s.add(Token{Text: rng.Pick(r, p.register.verbsPast), Tag: TagVBD})
	}
}

// entityNP renders an entity mention, optionally wrapped in a
// class-indicative context frame. The mention tokens carry gold labels.
// The frame is drawn before any token is appended: its strength, then,
// for drugs and diseases, whether it leads or trails the mention.
func (g *Generator) entityNP(r *rng.RNG, p *Profile, s *Sentence, t EntityType) {
	e := g.pickEntry(r, p.Kind, t)
	surface := e.Name
	if len(e.Synonyms) > 0 && r.Bool(0.3) {
		surface = rng.Pick(r, e.Synonyms)
	}
	strong := r.Bool(p.EntityContextStrength)
	leads := strong && (t == Drug || t == Disease) && r.Bool(0.5)
	switch {
	case strong && t == Gene:
		s.add(Token{Text: "the", Tag: TagDT})
	case leads && t == Drug:
		s.add(Token{Text: "treated", Tag: TagVBN}, Token{Text: "with", Tag: TagIN})
	case leads:
		s.add(Token{Text: "patients", Tag: TagNNS}, Token{Text: "with", Tag: TagIN})
	}
	first := true
	for w := range strings.FieldsSeq(surface) {
		s.add(Token{Text: w, Tag: TagNNP, Ent: t, First: first})
		first = false
	}
	switch {
	case !strong || leads:
	case t == Gene:
		s.add(Token{Text: "gene", Tag: TagNN})
	case t == Drug:
		s.add(Token{Text: "therapy", Tag: TagNN})
	case t == Disease:
		s.add(Token{Text: "patients", Tag: TagNNS})
	}
}

// degenerate produces a long structureless fragment (keyword soup), the web
// pathology that makes sentence detection emit 2000+ character "sentences".
func (g *Generator) degenerate(r *rng.RNG, buf []Token) Sentence {
	n := 60 + r.Intn(400)
	s := Sentence{Tokens: buf, Degenerate: true}
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			s.add(Token{Text: rng.Pick(r, navWords), Tag: TagNN})
		case 1:
			s.add(Token{Text: RandomTLA(r), Tag: TagNNP})
		case 2:
			s.add(Token{Text: rng.Pick(r, webNouns), Tag: TagNN})
		default:
			s.add(Token{Text: numerals[r.Intn(len(numerals))], Tag: TagCD})
		}
		if r.Bool(0.08) {
			s.add(Token{Text: "|", Tag: TagSYM})
		}
	}
	return s
}

// navWords are the navigation labels keyword soup draws from.
var navWords = []string{
	"home", "login", "contact", "sitemap", "copyright", "privacy", "terms",
	"next", "previous", "search", "menu", "share", "rss", "archive",
}

// numerals are the decimal numbers keyword soup draws from, 0 to 2025.
var numerals = func() []string {
	out := make([]string, 2026)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

// noSpaceBefore reports whether a token attaches to the previous one
// without whitespace when rendering.
func noSpaceBefore(text string) bool {
	switch text {
	case ".", ",", ")", ";", ":":
		return true
	}
	return false
}

// render produces d.Text, d.SentSpans, and d.Mentions with byte offsets.
func (g *Generator) render(d *Doc) {
	size, mentions := 0, 0
	for _, s := range d.Sentences {
		for _, tok := range s.Tokens {
			size += len(tok.Text) + 1 // at most one space before each token
			if tok.First {
				mentions++
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	d.SentSpans = make([][2]int, 0, len(d.Sentences))
	d.Mentions = make([]Mention, 0, mentions)
	for si, s := range d.Sentences {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		sentStart := b.Len()
		var cur Mention
		open := false
		for ti, tok := range s.Tokens {
			if ti > 0 && !noSpaceBefore(tok.Text) && s.Tokens[ti-1].Text != "(" {
				b.WriteByte(' ')
			}
			start := b.Len()
			b.WriteString(tok.Text)
			end := b.Len()
			if tok.Ent != None {
				if tok.First || !open || cur.Type != tok.Ent {
					if open {
						d.Mentions = append(d.Mentions, cur)
					}
					cur, open = Mention{Type: tok.Ent, Start: start, End: end, Sentence: si}, true
				} else {
					cur.End = end
				}
			} else if open {
				d.Mentions = append(d.Mentions, cur)
				open = false
			}
		}
		if open {
			d.Mentions = append(d.Mentions, cur)
		}
		d.SentSpans = append(d.SentSpans, [2]int{sentStart, b.Len()})
	}
	d.Text = b.String()
	for i := range d.Mentions {
		m := &d.Mentions[i]
		m.Name = d.Text[m.Start:m.End]
		if e, ok := g.Lex.Lookup(m.Name); ok {
			m.Entry = e
		}
	}
	// Gold relations: for a subject-verb-object sentence, the first two
	// mentions of the sentence are the subject and the object.
	for si, s := range d.Sentences {
		if !s.RelSubjObj {
			continue
		}
		subj, obj := -1, -1
		for mi := range d.Mentions {
			if d.Mentions[mi].Sentence != si {
				continue
			}
			if subj < 0 {
				subj = mi
			} else {
				obj = mi
				break
			}
		}
		if obj < 0 {
			continue
		}
		d.Relations = append(d.Relations, Relation{
			Sentence: si, A: subj, B: obj,
			Verb: s.RelVerb, Negated: s.Negated,
		})
	}
}
