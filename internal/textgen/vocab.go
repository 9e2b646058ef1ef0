package textgen

// MedPost-style part-of-speech tagset, simplified to the tags the linguistic
// analysis and the HMM tagger need. The real MedPost tagset has ~60 tags;
// the paper only depends on the tagger's runtime behaviour (Fig 3a) and on
// broad word classes, so a compact Penn-style subset suffices.
const (
	TagNN     = "NN"   // singular noun
	TagNNS    = "NNS"  // plural noun
	TagNNP    = "NNP"  // proper noun (entity tokens)
	TagVB     = "VB"   // verb, base
	TagVBZ    = "VBZ"  // verb, 3rd person singular
	TagVBD    = "VBD"  // verb, past
	TagVBN    = "VBN"  // verb, past participle
	TagJJ     = "JJ"   // adjective
	TagRB     = "RB"   // adverb
	TagDT     = "DT"   // determiner
	TagIN     = "IN"   // preposition
	TagCC     = "CC"   // coordinating conjunction
	TagPRP    = "PRP"  // personal pronoun
	TagPRPS   = "PRP$" // possessive pronoun
	TagWDT    = "WDT"  // wh-determiner (relative)
	TagTO     = "TO"
	TagCD     = "CD"  // cardinal number
	TagNEG    = "NEG" // not / nor / neither (MedPost keeps a dedicated tag)
	TagLRB    = "-LRB-"
	TagRRB    = "-RRB-"
	TagComma  = ","
	TagPeriod = "."
	TagSYM    = "SYM"
)

// AllTags lists every tag the generator can emit; the HMM tagger uses this
// as its closed tag inventory.
var AllTags = []string{
	TagNN, TagNNS, TagNNP, TagVB, TagVBZ, TagVBD, TagVBN, TagJJ, TagRB,
	TagDT, TagIN, TagCC, TagPRP, TagPRPS, TagWDT, TagTO, TagCD, TagNEG,
	TagLRB, TagRRB, TagComma, TagPeriod, TagSYM,
}

// PronounClass enumerates the six pronoun classes counted in §4.3.1.
type PronounClass int

const (
	PronSubject PronounClass = iota
	PronObject
	PronPossessive
	PronDemonstrative
	PronRelative
	PronReflexive
	numPronounClasses
)

// NumPronounClasses is the number of distinct classes ("we counted six
// different classes of pronouns in each data set", §4.3.1).
const NumPronounClasses = int(numPronounClasses)

// String names the class in reports.
func (p PronounClass) String() string {
	switch p {
	case PronSubject:
		return "subject"
	case PronObject:
		return "object"
	case PronPossessive:
		return "possessive"
	case PronDemonstrative:
		return "demonstrative"
	case PronRelative:
		return "relative"
	case PronReflexive:
		return "reflexive"
	}
	return "unknown"
}

// Pronoun surface forms per class, with the POS tag each carries.
var pronounWords = map[PronounClass][]string{
	PronSubject:       {"he", "she", "it", "they", "we"},
	PronObject:        {"him", "her", "them", "us"},
	PronPossessive:    {"his", "its", "their", "our"},
	PronDemonstrative: {"this", "that", "these", "those"},
	PronRelative:      {"which", "who", "whom", "whose"},
	PronReflexive:     {"itself", "themselves", "himself", "herself"},
}

// NegationWords are the three forms the paper's regex detector looks for
// ("mentions of the words not, nor, and neither", §4.3.1).
var NegationWords = []string{"not", "nor", "neither"}

// General-English vocabulary, split by word class. Two registers exist:
// a scientific register (Medline/PMC/relevant-web) and a mundane register
// (irrelevant web pages: shopping, sports, travel, ...).
var (
	determiners  = []string{"the", "a", "an", "each", "some", "no", "all", "both"}
	prepositions = []string{"of", "in", "with", "for", "on", "by", "from", "during", "after", "between", "against", "under"}
	conjunctions = []string{"and", "or", "but"}

	sciNouns = []string{
		"patient", "study", "treatment", "expression", "mutation", "therapy",
		"cell", "tumor", "protein", "pathway", "response", "dose", "effect",
		"analysis", "cohort", "trial", "receptor", "sample", "tissue", "gene",
		"biomarker", "survival", "risk", "outcome", "mechanism", "inhibitor",
		"sequence", "variant", "level", "group", "model", "assay", "diagnosis",
	}
	sciVerbs = [][2]string{ // base, 3rd-person-singular
		{"regulate", "regulates"}, {"inhibit", "inhibits"}, {"activate", "activates"},
		{"suppress", "suppresses"}, {"induce", "induces"}, {"mediate", "mediates"},
		{"encode", "encodes"}, {"express", "expresses"}, {"bind", "binds"},
		{"reduce", "reduces"}, {"increase", "increases"}, {"cause", "causes"},
		{"affect", "affects"}, {"target", "targets"}, {"modulate", "modulates"},
	}
	sciVerbsPast = []string{
		"regulated", "inhibited", "activated", "suppressed", "induced",
		"observed", "measured", "analyzed", "treated", "reported", "identified",
		"associated", "compared", "evaluated", "detected",
	}
	sciAdjectives = []string{
		"significant", "clinical", "molecular", "cellular", "therapeutic",
		"malignant", "benign", "elevated", "reduced", "novel", "functional",
		"genetic", "systemic", "adverse", "relevant", "primary",
	}
	sciAdverbs = []string{
		"significantly", "strongly", "markedly", "frequently", "rarely",
		"substantially", "partially", "directly", "notably",
	}

	webNouns = []string{
		"price", "shipping", "review", "account", "order", "game", "season",
		"team", "recipe", "hotel", "flight", "photo", "video", "comment",
		"update", "store", "deal", "phone", "car", "house", "movie", "music",
		"coupon", "ticket", "blog", "post", "page", "site", "weather", "news",
	}
	webVerbs = [][2]string{
		{"buy", "buys"}, {"sell", "sells"}, {"watch", "watches"}, {"play", "plays"},
		{"visit", "visits"}, {"book", "books"}, {"read", "reads"}, {"share", "shares"},
		{"love", "loves"}, {"post", "posts"}, {"ship", "ships"}, {"save", "saves"},
	}
	webVerbsPast = []string{
		"bought", "sold", "watched", "played", "visited", "booked", "posted",
		"shared", "loved", "saved", "updated", "reviewed",
	}
	webAdjectives = []string{
		"new", "best", "free", "cheap", "great", "popular", "easy", "fast",
		"local", "official", "amazing", "top", "daily", "hot",
	}
	webAdverbs = []string{
		"now", "today", "online", "here", "quickly", "always", "never", "often",
	}

	// Abbreviation expansions placed inside parentheses, and citation-like
	// parenthetical fillers for the PMC register.
	parenFillers = []string{
		"p < 0.01", "n = 42", "Fig. 2", "Table 3", "95% CI", "e.g.",
		"i.e.", "reviewed in 12", "data not shown", "OR 2.3",
	}
)

// register bundles the word pools for one text register. plurals[i] is
// nouns[i] + "s".
type register struct {
	nouns      []string
	plurals    []string
	verbs      [][2]string
	verbsPast  []string
	adjectives []string
	adverbs    []string
}

var sciRegister = register{sciNouns, plurals(sciNouns), sciVerbs, sciVerbsPast, sciAdjectives, sciAdverbs}
var webRegister = register{webNouns, plurals(webNouns), webVerbs, webVerbsPast, webAdjectives, webAdverbs}

func plurals(nouns []string) []string {
	out := make([]string, len(nouns))
	for i, n := range nouns {
		out[i] = n + "s"
	}
	return out
}
