// Package classify implements the focused crawler's relevance classifier
// (§2.1): a multinomial Naive Bayes model over a bag-of-words document
// representation. The paper chose Naive Bayes "due to its robustness with
// respect to class imbalance ... and its ability to update its model
// incrementally"; both properties hold here (log-space class priors can be
// overridden; Learn can be called after training).
//
// The classifier is trained exactly as in the paper: positive examples are
// Medline-style abstracts, negatives are random English web documents
// (common-crawl substitute). The paper notes this introduces a bias because
// "a typical Medline abstract is quite different from a typical web page"
// (§2) — the same bias emerges here and is visible in the gap between
// cross-validation and crawl-sample quality (see EXPERIMENTS.md).
package classify

import (
	"math"
)

// Class is a binary relevance label.
type Class int

const (
	// Irrelevant is the negative class.
	Irrelevant Class = iota
	// Relevant is the positive class.
	Relevant
)

// String names the class.
func (c Class) String() string {
	if c == Relevant {
		return "relevant"
	}
	return "irrelevant"
}

// wordScanner walks the bag-of-words tokens of a text in place: runs of
// ASCII letters and digits, two bytes or longer and not all digits. Every
// other byte separates runs — the bytes of a multi-byte rune and invalid
// UTF-8 alike, as ranging over the text's runes did.
type wordScanner struct {
	text string
	i    int
}

// next appends the next token to buf, lower-cased, and returns it; it
// reports false at the end of the text.
func (sc *wordScanner) next(buf []byte) ([]byte, bool) {
	for sc.i < len(sc.text) {
		start, letters := sc.i, false
		for ; sc.i < len(sc.text); sc.i++ {
			c := sc.text[sc.i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
				break
			}
			letters = letters || c > '9'
			buf = append(buf, c)
		}
		if sc.i-start >= 2 && letters {
			return buf, true
		}
		buf = buf[:0]
		sc.i++ // past the separator
	}
	return nil, false
}

// wordStat is one vocabulary word's count per class and the smoothed log
// count math.Log(float64(n[c])+1) that scoring adds, kept current by Learn.
type wordStat struct {
	n    [2]int
	logN [2]float64
}

// NaiveBayes is a multinomial Naive Bayes text classifier with Laplace
// smoothing. The zero value is an untrained classifier; use New.
type NaiveBayes struct {
	words      map[string]*wordStat
	totalWords [2]int
	docs       [2]int

	// Threshold is the posterior probability of Relevant required to
	// classify as relevant. 0.5 is the Bayes decision; the paper's model
	// is "geared towards high precision" (§4.1), corresponding to a higher
	// threshold — the precision/yield trade-off discussed in §5.
	Threshold float64
}

// New returns an empty classifier with the default 0.5 threshold.
func New() *NaiveBayes {
	return &NaiveBayes{words: map[string]*wordStat{}, Threshold: 0.5}
}

// Learn incrementally updates the model with one labelled document.
func (nb *NaiveBayes) Learn(text string, class Class) {
	nb.docs[class]++
	var buf [64]byte
	for sc := (wordScanner{text: text}); ; {
		w, ok := sc.next(buf[:0])
		if !ok {
			return
		}
		s := nb.words[string(w)]
		if s == nil {
			s = &wordStat{}
			nb.words[string(w)] = s
		}
		s.n[class]++
		s.logN[class] = math.Log(float64(s.n[class]) + 1)
		nb.totalWords[class]++
	}
}

// Trained reports whether both classes have at least one example.
func (nb *NaiveBayes) Trained() bool { return nb.docs[0] > 0 && nb.docs[1] > 0 }

// Clone returns an independent deep copy of the model (for experiments
// that update one instance incrementally while keeping the original).
func (nb *NaiveBayes) Clone() *NaiveBayes {
	out := &NaiveBayes{
		words:      make(map[string]*wordStat, len(nb.words)),
		totalWords: nb.totalWords,
		docs:       nb.docs,
		Threshold:  nb.Threshold,
	}
	for w, s := range nb.words {
		c := *s
		out.words[w] = &c
	}
	return out
}

// ProbRelevant returns P(Relevant | text) in [0, 1].
//
// The returned probability is length-calibrated: the class log-odds are
// normalized by the token count before the logistic transform. Raw
// multinomial NB posteriors saturate at 0/1 for documents of hundreds of
// words, which would make the decision threshold useless as a
// precision/yield knob — and tuning that knob is exactly the §5 trade-off
// ("one could tune the classifier towards more recall during crawling").
// The 0.5 decision boundary is unaffected (sigmoid(x) >= 0.5 iff x >= 0).
//
// Both class log joints accumulate in one pass in token order, each as
// its own running sum, so every bit matches summing one class after the
// other; an unseen word adds 0 - denom, which is math.Log(1) - denom.
func (nb *NaiveBayes) ProbRelevant(text string) float64 {
	if !nb.Trained() {
		return 0.5
	}
	totalDocs := nb.docs[0] + nb.docs[1]
	v := float64(len(nb.words))
	var l, denom [2]float64
	for c := 0; c < 2; c++ {
		l[c] = math.Log(float64(nb.docs[c]+1) / float64(totalDocs+2))
		denom[c] = math.Log(float64(nb.totalWords[c]) + v)
	}
	tokens := 0
	var buf [64]byte
	for sc := (wordScanner{text: text}); ; tokens++ {
		w, ok := sc.next(buf[:0])
		if !ok {
			break
		}
		var logN [2]float64
		if s := nb.words[string(w)]; s != nil {
			logN = s.logN
		}
		l[0] += logN[0] - denom[0]
		l[1] += logN[1] - denom[1]
	}
	n := float64(tokens)
	if n < 1 {
		n = 1
	}
	perToken := (l[Relevant] - l[Irrelevant]) / n
	return 1 / (1 + math.Exp(-8*perToken))
}

// Classify applies the decision threshold.
func (nb *NaiveBayes) Classify(text string) Class {
	if nb.ProbRelevant(text) >= nb.Threshold {
		return Relevant
	}
	return Irrelevant
}

// Example is one labelled training document.
type Example struct {
	Text  string
	Class Class
}

// Train builds a classifier from a labelled set.
func Train(examples []Example, threshold float64) *NaiveBayes {
	nb := New()
	nb.Threshold = threshold
	for _, ex := range examples {
		nb.Learn(ex.Text, ex.Class)
	}
	return nb
}

// Quality holds binary classification quality measures with respect to the
// Relevant class.
type Quality struct {
	TP, FP, TN, FN int
}

// Precision returns TP / (TP + FP); 1 if no positives were predicted.
func (q Quality) Precision() float64 {
	if q.TP+q.FP == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FP)
}

// Recall returns TP / (TP + FN); 1 if no positives exist.
func (q Quality) Recall() float64 {
	if q.TP+q.FN == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FN)
}

// Add accumulates another quality count.
func (q *Quality) Add(o Quality) {
	q.TP += o.TP
	q.FP += o.FP
	q.TN += o.TN
	q.FN += o.FN
}

// Evaluate scores a trained classifier on a labelled set.
func Evaluate(nb *NaiveBayes, examples []Example) Quality {
	var q Quality
	for _, ex := range examples {
		got := nb.Classify(ex.Text)
		switch {
		case got == Relevant && ex.Class == Relevant:
			q.TP++
		case got == Relevant && ex.Class == Irrelevant:
			q.FP++
		case got == Irrelevant && ex.Class == Irrelevant:
			q.TN++
		default:
			q.FN++
		}
	}
	return q
}

// CrossValidate performs k-fold cross-validation (the paper uses 10-fold,
// §4.1) and returns the pooled quality over all folds. Fold assignment is
// round-robin, so callers should pre-shuffle if example order is biased.
func CrossValidate(examples []Example, k int, threshold float64) Quality {
	if k < 2 {
		k = 2
	}
	var total Quality
	for fold := 0; fold < k; fold++ {
		var train, test []Example
		for i, ex := range examples {
			if i%k == fold {
				test = append(test, ex)
			} else {
				train = append(train, ex)
			}
		}
		nb := Train(train, threshold)
		total.Add(Evaluate(nb, test))
	}
	return total
}
