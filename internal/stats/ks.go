package stats

import (
	"math"
	"sort"
)

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	D float64 // the KS statistic: sup |F1 - F2|
	P float64 // asymptotic p-value of the null "same distribution"
}

// KolmogorovSmirnov runs the two-sample KS test on xs and ys. The paper
// mentions (and omits, "in favor of brevity") an analysis of whether the
// measurement and forecasting residuals differ significantly; this is the
// standard tool for that comparison. It returns ErrShort if either sample
// has fewer than 4 observations.
func KolmogorovSmirnov(xs, ys []float64) (KSResult, error) {
	if len(xs) < 4 || len(ys) < 4 {
		return KSResult{}, ErrShort
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	n1, n2 := len(a), len(b)
	var i, j int
	var d float64
	for i < n1 && j < n2 {
		x1, x2 := a[i], b[j]
		if x1 <= x2 {
			i++
		}
		if x2 <= x1 {
			j++
		}
		diff := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > d {
			d = diff
		}
	}
	ne := float64(n1) * float64(n2) / float64(n1+n2)
	res := KSResult{D: d}
	res.P = ksProbability((math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d)
	return res, nil
}

// ksProbability is the asymptotic KS tail probability
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)
// (Numerical Recipes' probks).
func ksProbability(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	a2 := -2 * lambda * lambda
	sum := 0.0
	sign := 1.0
	prev := 0.0
	for k := 1; k <= 100; k++ {
		term := sign * 2 * math.Exp(a2*float64(k)*float64(k))
		sum += term
		if math.Abs(term) <= 1e-9*prev || math.Abs(term) <= 1e-12 {
			return clampP(sum)
		}
		sign = -sign
		prev = math.Abs(term)
	}
	return 1 // failed to converge: be conservative
}

func clampP(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
