package main

import (
	"math"
	"sort"

	"webtextie/internal/stats"
)

// summary describes the timed repeats of one metric.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQR is the distance between the first and third quartile; Spread is
	// IQR as a share of the median — the noise figure -check-against
	// refuses to see through.
	IQR    float64 `json:"iqr"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

// quartiles returns the first and third quartile by the exclusive method,
// the one Python's statistics.quantiles(values, n=4) uses, so a spread
// computed here matches the one the driver computes over its own runs.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

func summarize(vals []float64) summary {
	d := stats.Summarize(vals)
	q1, q3 := quartiles(vals)
	out := summary{Median: d.Median, Min: d.Min, Max: d.Max, IQR: q3 - q1, N: d.N}
	if out.Median != 0 {
		out.Spread = out.IQR / math.Abs(out.Median)
	}
	return out
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// highPercentile returns the highest percentile, capped at ceiling, that still
// has at least tailSamples samples beyond it among n. Below
// 2*tailSamples samples nothing above the median is supported.
func highPercentile(n int, ceiling float64) float64 {
	if n < 2*tailSamples {
		return 0.5
	}
	return math.Min(ceiling, 1-float64(tailSamples)/float64(n))
}

// percentile returns the smallest sample with at least p of the samples
// at or below it.
func percentile(sortedVals []float64, p float64) float64 {
	n := len(sortedVals)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sortedVals[i]
}
