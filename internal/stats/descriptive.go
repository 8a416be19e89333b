// Package stats provides the statistical machinery used throughout the
// repository: descriptive statistics, autocorrelation analysis, least-squares
// regression, and the R/S (rescaled adjusted range) analysis used to estimate
// the Hurst parameter of CPU availability series, following the methodology
// of Mandelbrot & Taqqu and of Leland et al. as applied by Wolski, Spring and
// Hayes (HPDC 1999).
//
// All functions operate on plain []float64 slices and never modify their
// inputs unless explicitly documented.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrShort is returned when a sample is too short for the requested analysis.
var ErrShort = errors.New("stats: sample too short")

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	// Kahan compensated summation: availability series are long (8640+
	// samples per day) and built from values near 1.0, where naive
	// accumulation loses precision.
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns 0 for samples with fewer than two elements.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population (n denominator) variance of xs.
// It returns 0 for empty samples.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
// It returns 0 for an empty sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7 quantile, the R default).
// It returns 0 for an empty sample and clamps q into [0,1].
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n == 1 {
		return tmp[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// TrimmedMean returns the mean of xs after discarding the lowest and highest
// frac fraction of the sorted sample (0 <= frac < 0.5). With frac = 0 it is
// the ordinary mean. If trimming would discard everything the median is
// returned.
func TrimmedMean(xs []float64, frac float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if frac <= 0 {
		return Mean(xs)
	}
	if frac >= 0.5 {
		return Median(xs)
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	k := int(float64(n) * frac)
	if 2*k >= n {
		return Median(xs)
	}
	return Mean(tmp[k : n-k])
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // square root of the unbiased sample variance
	Min    float64
	Max    float64
	Median float64
	Q25    float64
	Q75    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: math.Sqrt(Variance(xs)),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
		Q25:    Quantile(xs, 0.25),
		Q75:    Quantile(xs, 0.75),
	}
}
