// Package rng provides a deterministic, splittable pseudo-random number
// generator plus the sampling utilities (weighted choice, Zipf, shuffles)
// used throughout the synthetic-web and corpus generators.
//
// Determinism matters here: the paper's experiments cannot be repeated on
// the live web ("experiments cannot be repeated due to the highly dynamic
// nature of the web", §4.1); our substitute web is fully reproducible so
// that every experiment in EXPERIMENTS.md can be re-run bit-for-bit.
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference construction by Blackman and Vigna.
package rng

import "math"

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New, Split or Keyed.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed via SplitMix64,
// which guarantees the four state words are well distributed even for
// small consecutive seeds.
func New(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded is New by value.
func seeded(seed uint64) (r RNG) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro requires a non-zero state; SplitMix64 can only produce all
	// zeros with negligible probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent child generator from the parent's stream,
// keyed by label so that adding a new consumer does not perturb the
// sequences seen by existing consumers.
func (r *RNG) Split(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// Keyed returns, by value, the generator New(seed).Split(label) returns
// for label the concatenation of parts. The parts are hashed one after
// the other, as Split hashes its label, and never joined, so a label
// built from a URL and a few constants costs no allocation. Split stays
// the reference it is tested against.
func Keyed(seed uint64, parts ...string) RNG {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
	}
	parent := seeded(seed)
	return seeded(parent.Uint64() ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo1 := t & mask
	hi1 := t >> 32
	lo1 += aLo * bHi
	hi = aHi*bHi + hi1 + lo1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has parameters mu and sigma. Document and sentence lengths in all four
// corpora are modelled as log-normal (heavy right tail, as in Fig 6).
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(r.Norm(mean, math.Sqrt(mean)) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Shuffle permutes the first n elements using the Fisher-Yates algorithm,
// calling swap for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice, mirroring Intn.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Zipf draws ranks from a Zipf distribution over [0, n) with exponent s.
// Word frequencies, host out-degrees and entity-name popularity all follow
// power laws in web corpora; Zipf sampling is used everywhere a long-tail
// choice is required.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf precomputes the CDF for n ranks with exponent s (> 0).
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Draw returns a rank in [0, n), rank 0 being the most likely.
func (z *Zipf) Draw() int {
	x := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
