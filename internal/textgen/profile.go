package textgen

// CorpusKind identifies the four text collections compared in §4.3.
type CorpusKind int

const (
	// Relevant is the crawled corpus classified as biomedical.
	Relevant CorpusKind = iota
	// Irrelevant is the crawled corpus classified as off-domain.
	Irrelevant
	// Medline is the abstract collection (21.7 M abstracts in the paper).
	Medline
	// PMC is the PLoS open-access full-text collection (~250 K articles).
	PMC
)

// CorpusKinds lists all corpora in the paper's reporting order (Table 3).
var CorpusKinds = []CorpusKind{Relevant, Irrelevant, Medline, PMC}

// String names the corpus as in the paper's tables.
func (k CorpusKind) String() string {
	switch k {
	case Relevant:
		return "Relevant"
	case Irrelevant:
		return "Irrelevant"
	case Medline:
		return "Medline"
	case PMC:
		return "PMC"
	}
	return "unknown"
}

// LogNormal holds the parameters of a log-normal distribution used for
// length modelling (document and sentence lengths are heavy-tailed in all
// four corpora, Fig 6a-b).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Profile captures the linguistic fingerprint of one corpus. The values
// below are reverse-engineered from the paper's measurements so that our
// measurement pipeline reproduces the *orderings and ratios* of §4.3:
//
//   - net-text document length: PMC > Relevant > Irrelevant > Medline (Fig 6a)
//   - sentence length: PMC > Medline > Relevant > Irrelevant (Fig 6b; [6])
//   - negation: PMC ≈ Irrelevant > Relevant > Medline (Fig 6c)
//   - pronouns (demonstrative/relative/object): PMC > web corpora (§4.3.1)
//   - parentheses: PMC > Relevant > Medline > Irrelevant (§4.3.1)
//   - entity mentions per 1000 sentences: the avg* figures of §4.3.2
type Profile struct {
	Kind CorpusKind

	// register selects the scientific or mundane word pools.
	register register

	// SentencesPerDoc and TokensPerSentence drive the length distributions.
	SentencesPerDoc   LogNormal
	TokensPerSentence LogNormal

	// NegationRate is the per-sentence probability of a negation particle.
	NegationRate float64

	// PronounRate is the per-sentence probability of each pronoun class.
	PronounRate [NumPronounClasses]float64

	// ParenRate is the per-sentence probability of a parenthesized insert.
	ParenRate float64

	// EntityRate holds mentions per sentence for each entity class
	// (the paper reports per-1000-sentence averages; divide by 1000).
	EntityRate map[EntityType]float64

	// OOVEntityShare is the fraction of entity mentions drawn from entries
	// missing from the curated dictionaries. Higher on the web, where novel
	// and informal names circulate before databases record them.
	OOVEntityShare float64

	// TLARate is the per-sentence probability of a non-entity three-letter
	// acronym (FAQ, USA, ...). Web text is saturated with these; Medline
	// abstracts are not — which is exactly why abstract-trained ML taggers
	// over-tag TLAs on web text (§4.3.2).
	TLARate float64

	// DegenerateRate is the probability that a "sentence" is actually a
	// run-on fragment (navigation residue, keyword lists) with no sentence
	// structure — the >2000-character "sentences" that destabilize the POS
	// tagger (Fig 3a discussion). Only web corpora exhibit these.
	DegenerateRate float64

	// ZipfExponent skews entity-name popularity; higher values concentrate
	// mentions on fewer distinct names.
	ZipfExponent float64

	// EntityContextStrength is the probability that an entity mention is
	// wrapped in a class-indicative context ("the X gene", "treated with X").
	// High for scientific prose, lower for the web — another driver of the
	// ML domain-shift problem.
	EntityContextStrength float64
}

// DefaultProfiles returns the calibrated profile set. Entity rates are the
// paper's per-1000-sentence averages (§4.3.2: avg_rel, avg_irrel, avg_medl,
// avg_pmc for diseases/drugs; dictionary-based averages for genes).
func DefaultProfiles() map[CorpusKind]*Profile {
	return map[CorpusKind]*Profile{
		Relevant: {
			Kind:              Relevant,
			register:          sciRegister,
			SentencesPerDoc:   LogNormal{Mu: 3.4, Sigma: 0.9}, // ~30 sentences, large variance ("largest variance", Fig 6a)
			TokensPerSentence: LogNormal{Mu: 2.85, Sigma: 0.45},
			NegationRate:      0.09,
			PronounRate:       [NumPronounClasses]float64{0.10, 0.04, 0.08, 0.06, 0.07, 0.01},
			ParenRate:         0.10,
			EntityRate: map[EntityType]float64{
				Disease: 128.49 / 1000,
				Drug:    97.83 / 1000,
				Gene:    128.23 / 1000,
			},
			OOVEntityShare:        0.35,
			TLARate:               0.22,
			DegenerateRate:        0.02,
			ZipfExponent:          0.85,
			EntityContextStrength: 0.55,
		},
		Irrelevant: {
			Kind:              Irrelevant,
			register:          webRegister,
			SentencesPerDoc:   LogNormal{Mu: 2.8, Sigma: 0.7}, // ~16 sentences
			TokensPerSentence: LogNormal{Mu: 2.6, Sigma: 0.4},
			NegationRate:      0.13,
			PronounRate:       [NumPronounClasses]float64{0.12, 0.05, 0.09, 0.05, 0.05, 0.01},
			ParenRate:         0.03,
			EntityRate: map[EntityType]float64{
				Disease: 4.57 / 1000,
				Drug:    6.85 / 1000,
				Gene:    4.39 / 1000,
			},
			OOVEntityShare:        0.60,
			TLARate:               0.05,
			DegenerateRate:        0.02,
			ZipfExponent:          1.1,
			EntityContextStrength: 0.25,
		},
		Medline: {
			Kind:              Medline,
			register:          sciRegister,
			SentencesPerDoc:   LogNormal{Mu: 1.72, Sigma: 0.35}, // ~6 sentences ≈ 865 chars (Table 3)
			TokensPerSentence: LogNormal{Mu: 2.95, Sigma: 0.35},
			NegationRate:      0.06,
			PronounRate:       [NumPronounClasses]float64{0.06, 0.03, 0.05, 0.05, 0.06, 0.01},
			ParenRate:         0.08,
			EntityRate: map[EntityType]float64{
				Disease: 204.92 / 1000,
				Drug:    293.95 / 1000,
				Gene:    415.58 / 1000,
			},
			OOVEntityShare:        0.15,
			TLARate:               0.03,
			DegenerateRate:        0,
			ZipfExponent:          0.75,
			EntityContextStrength: 0.85,
		},
		PMC: {
			Kind:              PMC,
			register:          sciRegister,
			SentencesPerDoc:   LogNormal{Mu: 5.4, Sigma: 0.4}, // ~225 sentences ≈ full text
			TokensPerSentence: LogNormal{Mu: 3.05, Sigma: 0.4},
			NegationRate:      0.14,
			PronounRate:       [NumPronounClasses]float64{0.14, 0.07, 0.11, 0.10, 0.12, 0.02},
			ParenRate:         0.22,
			EntityRate: map[EntityType]float64{
				Disease: 117.51 / 1000,
				Drug:    275.95 / 1000,
				Gene:    74.12 / 1000,
			},
			OOVEntityShare:        0.20,
			TLARate:               0.06,
			DegenerateRate:        0,
			ZipfExponent:          0.8,
			EntityContextStrength: 0.80,
		},
	}
}
