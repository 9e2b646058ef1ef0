// Package stats provides the statistical machinery of §4.3: the
// Mann-Whitney-Wilcoxon rank test used to assess differences between
// corpora ("This test produces a P-value, which estimates the probability
// that the observed differences are due to random effects"), the
// Jensen-Shannon divergence used to compare entity-name distributions
// (§4.3.2), and descriptive statistics for the Fig 6-7 distribution
// plots.
package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median, Q1, Q3 float64
}

// Summarize computes descriptive statistics. An empty sample returns the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	v := sumSq/n - s.Mean*s.Mean
	if v > 0 {
		s.Std = math.Sqrt(v)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	return s
}

// quantile interpolates the q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// MannWhitney performs the two-sided Mann-Whitney-Wilcoxon test with the
// normal approximation (appropriate for the corpus-scale samples of §4.3)
// including tie correction. It returns the U statistic and the P-value.
func MannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks; collect tie groups for the variance correction.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	u2 := fn1*fn2 - u1
	u = math.Min(u1, u2)

	mean := fn1 * fn2 / 2
	nTot := fn1 + fn2
	varU := fn1 * fn2 / 12 * ((nTot + 1) - tieTerm/(nTot*(nTot-1)))
	if varU <= 0 {
		return u, 1
	}
	// Continuity correction.
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(varU)
	if z < 0 {
		z = 0
	}
	p = 2 * (1 - normCDF(z))
	if p > 1 {
		p = 1
	}
	return u, p
}

// normCDF is the standard normal CDF via erfc.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Distribution is a discrete probability distribution over string keys.
type Distribution map[string]float64

// NewDistribution normalizes counts into a distribution. Nil is returned
// for an empty or all-zero input.
func NewDistribution(counts map[string]int) Distribution {
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += float64(c)
		}
	}
	if total == 0 {
		return nil
	}
	d := make(Distribution, len(counts))
	for k, c := range counts {
		if c > 0 {
			d[k] = float64(c) / total
		}
	}
	return d
}

// KL returns the Kullback-Leibler divergence D(p || q) in bits, treating
// missing q-mass as absolute (callers should use JSD for safety). The
// terms are summed in key order, so the result does not depend on map
// iteration order.
func KL(p, q Distribution) float64 {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var d float64
	for _, k := range keys {
		pk := p[k]
		if pk <= 0 {
			continue
		}
		qk := q[k]
		if qk <= 0 {
			return math.Inf(1)
		}
		d += pk * math.Log2(pk/qk)
	}
	return d
}

// JSD returns the Jensen-Shannon divergence between two distributions in
// bits, bounded in [0, 1] (§4.3.2: "JSD is a symmetric measure and results
// in values bounded ... 0 ≤ JSD ≤ 1").
func JSD(p, q Distribution) float64 {
	if p == nil && q == nil {
		return 0
	}
	if p == nil || q == nil {
		return 1
	}
	m := Distribution{}
	for k, v := range p {
		m[k] += v / 2
	}
	for k, v := range q {
		m[k] += v / 2
	}
	return KL(p, m)/2 + KL(q, m)/2
}
