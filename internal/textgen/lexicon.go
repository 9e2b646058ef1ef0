// Package textgen synthesizes the text resources the paper consumes but we
// cannot ship: biomedical name dictionaries (Gene Ontology / Drugbank /
// UMLS-MeSH substitutes), and the four document corpora (relevant web,
// irrelevant web, Medline abstracts, PMC full texts).
//
// Every generated document carries full ground truth — tokenization,
// MedPost-style POS tags, entity mention spans, negation/pronoun/parenthesis
// markers, and (for web pages) the true net text — so that all quality
// numbers in the paper (classifier P/R, boilerplate P/R, NER behaviour)
// can be measured against known-by-construction gold standards instead of
// the manual annotation the authors used.
package textgen

import (
	"fmt"
	"strings"

	"webtextie/internal/rng"
)

// EntityType enumerates the three biomedical entity classes the paper
// extracts (§3.2).
type EntityType int

const (
	// None marks a token that is not part of any entity mention.
	None EntityType = iota
	// Gene covers gene and protein names (paper dictionary: >700,000 entries).
	Gene
	// Drug covers drug and chemical names (paper dictionary: 51,188 entries).
	Drug
	// Disease covers disease names (paper dictionary: 61,438 entries).
	Disease
)

// String returns the lower-case class name used in reports.
func (e EntityType) String() string {
	switch e {
	case Gene:
		return "gene"
	case Drug:
		return "drug"
	case Disease:
		return "disease"
	default:
		return "none"
	}
}

// EntityTypes lists the three real entity classes in report order.
var EntityTypes = []EntityType{Disease, Drug, Gene}

// Entry is one dictionary entry: a canonical name plus surface variants.
type Entry struct {
	// Name is the canonical surface form.
	Name string
	// Type is the entity class of the entry.
	Type EntityType
	// Synonyms are additional surface forms (paper: gene dictionaries
	// include synonyms; ~900,000 distinct gene names exist in public
	// databases including synonyms, §4.3.2).
	Synonyms []string
	// TLA marks three-letter-acronym forms, the dominant source of
	// ML false positives on web text (§4.3.2).
	TLA bool
	// InDictionary reports whether the fuzzy-dictionary tagger knows this
	// entry. A fraction of real-world names is always missing from curated
	// dictionaries ("dictionaries are necessarily incomplete in a field
	// developing as fast as biomedical research", §3.2); those entries are
	// only reachable by the ML taggers.
	InDictionary bool
}

// Surfaces returns all surface forms of the entry, canonical name first.
func (e *Entry) Surfaces() []string {
	out := make([]string, 0, 1+len(e.Synonyms))
	out = append(out, e.Name)
	out = append(out, e.Synonyms...)
	return out
}

// LexiconSizes configures how many entries to synthesize per class.
// Defaults (DefaultLexiconSizes) are the paper's dictionary sizes scaled
// 1:100 so automaton construction remains measurable but laptop-friendly.
type LexiconSizes struct {
	Genes    int
	Drugs    int
	Diseases int
}

// DefaultLexiconSizes scales the paper's dictionaries (700,000 / 51,188 /
// 61,438 entries) by 1:100.
func DefaultLexiconSizes() LexiconSizes {
	return LexiconSizes{Genes: 7000, Drugs: 512, Diseases: 614}
}

// Lexicon holds the synthesized dictionaries for all three entity classes.
type Lexicon struct {
	Entries map[EntityType][]*Entry
	// byName resolves a surface form to its entry (first writer wins;
	// ambiguous names across classes are a known pain point in biomedical
	// NER, §3.2, and are deliberately possible here).
	byName map[string]*Entry
}

// ByType returns the entries of one class.
func (l *Lexicon) ByType(t EntityType) []*Entry { return l.Entries[t] }

// Lookup resolves a surface form.
func (l *Lexicon) Lookup(surface string) (*Entry, bool) {
	e, ok := l.byName[surface]
	return e, ok
}

// DictionarySurfaces returns the surface forms of all in-dictionary entries
// of one class, i.e. the input to the fuzzy dictionary matcher.
func (l *Lexicon) DictionarySurfaces(t EntityType) []string {
	var out []string
	for _, e := range l.Entries[t] {
		if e.InDictionary {
			out = append(out, e.Surfaces()...)
		}
	}
	return out
}

// Morpheme pools for name synthesis. The goal is not biological accuracy
// but the *string shapes* that make biomedical NER hard: mixed-case
// alphanumeric gene symbols, Greek-lettered drug names, multi-word latinate
// disease names, and a large population of three-letter acronyms.
var (
	geneStems = []string{
		"BRC", "TP", "EGF", "KRA", "MYC", "NOTCH", "WNT", "CDK", "RAS", "AKT",
		"PTEN", "RB", "VEGF", "HER", "ALK", "BRAF", "JAK", "STAT", "SMAD", "FGF",
		"PIK", "MTOR", "ATM", "CHEK", "PALB", "RAD", "MLH", "MSH", "APC", "NF",
		"CACT", "SOX", "PAX", "HOX", "GATA", "FOX", "RUNX", "TBX", "ZNF", "KLF",
	}
	geneSuffixes = []string{"A", "B", "C", "R", "L", "X", "1", "2", "3", "4", "11", "21", "3A", "2B", "1L"}
	drugPrefixes = []string{
		"aspi", "meto", "ator", "lisi", "omep", "simva", "amlo", "gaba", "sertra",
		"fluo", "cipro", "doxy", "predni", "warfa", "insu", "keto", "napro", "ibu",
		"aceta", "oxy", "hydro", "chloro", "benz", "sulfa", "tetra", "erythro",
	}
	drugSuffixes = []string{
		"rin", "prolol", "vastatin", "nopril", "razole", "dipine", "pentin",
		"line", "xetine", "floxacin", "cycline", "sone", "farin", "lin", "profen",
		"minophen", "codone", "thiazide", "quine", "cillin", "mycin", "zepam",
	}
	diseaseStems = []string{
		"carcin", "lymph", "leuk", "melan", "thym", "glio", "nephr", "hepat",
		"derma", "arthr", "oste", "neur", "cardi", "gastr", "pneum", "bronch",
		"encephal", "mening", "my", "fibr", "scler", "isch", "thromb", "anem",
	}
	diseaseSuffixes = []string{
		"oma", "itis", "osis", "emia", "pathy", "algia", "plegia", "trophy",
		"sclerosis", "ectasia", "iasis", "opathy",
	}
	diseaseQualifiers = []string{
		"chronic", "acute", "advanced", "metastatic", "congenital", "idiopathic",
		"juvenile", "refractory", "recurrent", "primary", "secondary", "severe",
	}
	diseaseAnatomy = []string{
		"renal", "hepatic", "cardiac", "pulmonary", "gastric", "cerebral",
		"ovarian", "prostate", "pancreatic", "colorectal", "thyroid", "bladder",
	}
)

// NewLexicon synthesizes a lexicon with the given sizes. dictCoverage is
// the fraction of entries included in the curated dictionaries (the rest
// exist "in the wild" only and are reachable solely via ML extraction).
// It panics if a size is past what its class's name generator can name.
func NewLexicon(r *rng.RNG, sizes LexiconSizes, dictCoverage float64) *Lexicon {
	l := &Lexicon{
		Entries: map[EntityType][]*Entry{},
		byName:  map[string]*Entry{},
	}
	l.gen(r, Gene, sizes.Genes, dictCoverage, makeGeneName)
	l.gen(r, Drug, sizes.Drugs, dictCoverage, makeDrugName)
	l.gen(r, Disease, sizes.Diseases, dictCoverage, makeDiseaseName)
	return l
}

// maxRejectedDraws is how many names in a row gen may draw that the
// lexicon already holds before it decides mk's name space is exhausted.
const maxRejectedDraws = 1 << 16

// gen draws names from mk until the lexicon holds n distinct entries of
// class t. A size past what mk can name is a programming error, like an
// unknown operator name: gen panics after maxRejectedDraws consecutive
// duplicates instead of looping forever.
func (l *Lexicon) gen(r *rng.RNG, t EntityType, n int, dictCoverage float64, mk func(*rng.RNG, int) (string, bool)) {
	seen, rejected := map[string]bool{}, 0
	for i := 0; len(l.Entries[t]) < n; i++ {
		name, tla := mk(r, i)
		if seen[name] || l.byName[name] != nil {
			if rejected++; rejected == maxRejectedDraws {
				panic(fmt.Sprintf("textgen: %d %s names asked for, name space exhausted at %d (%d duplicate draws in a row)",
					n, t, len(l.Entries[t]), rejected))
			}
			continue
		}
		rejected = 0
		seen[name] = true
		e := &Entry{
			Name:         name,
			Type:         t,
			TLA:          tla,
			InDictionary: r.Bool(dictCoverage),
		}
		// Roughly 30% of entries carry one synonym, mirroring the
		// synonym-rich gene databases.
		if r.Bool(0.3) {
			syn := synonymOf(r, name, i)
			if !seen[syn] {
				seen[syn] = true
				e.Synonyms = append(e.Synonyms, syn)
			}
		}
		l.Entries[t] = append(l.Entries[t], e)
		for _, s := range e.Surfaces() {
			if _, dup := l.byName[s]; !dup {
				l.byName[s] = e
			}
		}
	}
}

func makeGeneName(r *rng.RNG, i int) (string, bool) {
	stem := rng.Pick(r, geneStems)
	// A sizeable share of real gene symbols are bare short acronyms (RAS,
	// ATM, EGF, TP53-style): emit the stem alone sometimes. This is what
	// teaches abstract-trained ML taggers that acronym-shaped tokens are
	// genes — the root of the §4.3.2 TLA false-positive explosion on web
	// text ("a very large number of false positives are three letter
	// acronyms ... almost always tagged as genes").
	if len(stem) <= 4 && r.Bool(0.35) {
		return stem, len(stem) == 3
	}
	suf := rng.Pick(r, geneSuffixes)
	name := stem + suf
	if len(name) > 6 || r.Bool(0.2) {
		// Force uniqueness pressure toward numbered variants.
		name = fmt.Sprintf("%s%s%d", stem, suf, i%97)
	}
	tla := len(name) == 3 && name == strings.ToUpper(name)
	return name, tla
}

func makeDrugName(r *rng.RNG, i int) (string, bool) {
	name := rng.Pick(r, drugPrefixes) + rng.Pick(r, drugSuffixes)
	if r.Bool(0.15) {
		name = fmt.Sprintf("%s-%d", name, 10+i%90)
	}
	// Drug names are title-cased about half the time in running text; the
	// canonical dictionary form is lower-case.
	return name, false
}

func makeDiseaseName(r *rng.RNG, i int) (string, bool) {
	base := rng.Pick(r, diseaseStems) + rng.Pick(r, diseaseSuffixes)
	switch r.Intn(4) {
	case 0:
		return base, false
	case 1:
		return rng.Pick(r, diseaseQualifiers) + " " + base, false
	case 2:
		return rng.Pick(r, diseaseAnatomy) + " " + base, false
	default:
		return rng.Pick(r, diseaseQualifiers) + " " + rng.Pick(r, diseaseAnatomy) + " " + base, false
	}
}

// synonymOf derives a plausible synonym surface form: an acronym for
// multi-word names, a numbered or case variant otherwise.
func synonymOf(r *rng.RNG, name string, i int) string {
	words := strings.Fields(name)
	if len(words) >= 2 {
		var b strings.Builder
		for _, w := range words {
			b.WriteByte(byte(strings.ToUpper(w[:1])[0]))
		}
		return b.String() // acronym, frequently a TLA — exactly the ambiguity §4.3.2 describes
	}
	if r.Bool(0.5) {
		return strings.ToUpper(name)
	}
	return fmt.Sprintf("%s-%d", name, 1+i%9)
}

// RandomTLA returns a random three-letter acronym that is (almost surely)
// NOT an entity: web text is full of these (HTML, USA, FAQ, ...) and they
// are what BANNER-style taggers mis-tag as genes on web input. It returns a
// slice of tlas and allocates nothing.
func RandomTLA(r *rng.RNG) string {
	i := 0
	for range 3 {
		i = 26*i + r.Intn(26)
	}
	return tlas[3*i : 3*i+3]
}

// tlas holds every three-letter acronym, AAA to ZZZ, back to back.
var tlas = func() string {
	b := make([]byte, 0, 3*26*26*26)
	for i := range 26 * 26 * 26 {
		b = append(b, byte('A'+i/676), byte('A'+i/26%26), byte('A'+i%26))
	}
	return string(b)
}()
