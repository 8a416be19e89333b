// Package fgn generates exact fractional Gaussian noise — the canonical
// stationary process with a prescribed Hurst parameter — using the
// Davies–Harte circulant-embedding method (O(n log n) via the FFT).
//
// The repository uses it two ways: as ground truth for validating the Hurst
// estimators in package stats (generate H = 0.7, estimate, compare), and as
// a direct synthetic availability-trace generator for forecaster stress
// tests, complementing the mechanistic simulator workloads.
package fgn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"nwscpu/internal/stats"
)

// Autocovariance returns the lag-k autocovariance of unit-variance
// fractional Gaussian noise with Hurst parameter h:
//
//	gamma(k) = ( |k+1|^2H - 2|k|^2H + |k-1|^2H ) / 2
func Autocovariance(h float64, k int) float64 {
	if k < 0 {
		k = -k
	}
	fk := float64(k)
	return 0.5 * (math.Pow(fk+1, 2*h) - 2*math.Pow(fk, 2*h) + math.Pow(math.Abs(fk-1), 2*h))
}

// ErrEmbedding reports that the circulant embedding produced a negative
// eigenvalue (cannot happen for Hurst in (0,1) with exact arithmetic; tiny
// negative values from rounding are clamped, large ones are an error).
var ErrEmbedding = errors.New("fgn: circulant embedding not nonneg definite")

// Generate returns n samples of zero-mean, unit-variance fractional
// Gaussian noise with the given Hurst parameter, using rng for the
// underlying Gaussians. It returns an error if hurst is outside (0, 1) or
// n < 1.
func Generate(rng *rand.Rand, hurst float64, n int) ([]float64, error) {
	if hurst <= 0 || hurst >= 1 {
		return nil, fmt.Errorf("fgn: Hurst parameter %v outside (0,1)", hurst)
	}
	if n < 1 {
		return nil, errors.New("fgn: n must be positive")
	}
	if hurst == 0.5 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out, nil
	}
	// Circulant embedding of the covariance over a power-of-two ring of
	// size m = 2*npad >= 2n.
	npad := 1
	for npad < n {
		npad <<= 1
	}
	m := 2 * npad

	c := make([]complex128, m)
	for k := 0; k <= npad; k++ {
		c[k] = complex(Autocovariance(hurst, k), 0)
	}
	for k := 1; k < npad; k++ {
		c[m-k] = c[k]
	}
	if err := stats.FFT(c); err != nil {
		return nil, err
	}
	// Eigenvalues of the circulant matrix; must be nonnegative.
	lam := make([]float64, m)
	for i, v := range c {
		lam[i] = real(v)
		if lam[i] < 0 {
			if lam[i] > -1e-8*float64(m) {
				lam[i] = 0
			} else {
				return nil, ErrEmbedding
			}
		}
	}

	w := make([]complex128, m)
	w[0] = complex(math.Sqrt(lam[0]/float64(m))*rng.NormFloat64(), 0)
	w[npad] = complex(math.Sqrt(lam[npad]/float64(m))*rng.NormFloat64(), 0)
	for k := 1; k < npad; k++ {
		s := math.Sqrt(lam[k] / (2 * float64(m)))
		a, b := rng.NormFloat64(), rng.NormFloat64()
		w[k] = complex(s*a, s*b)
		w[m-k] = complex(s*a, -s*b)
	}
	if err := stats.FFT(w); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = real(w[i])
	}
	return out, nil
}

// AvailabilityTrace maps fractional Gaussian noise onto a plausible CPU
// availability series: mean + scale*noise, clamped to [0, 1]. It gives
// forecaster tests a series with exactly known long-memory structure,
// independent of the scheduler simulator.
func AvailabilityTrace(rng *rand.Rand, hurst, mean, scale float64, n int) ([]float64, error) {
	if mean < 0 || mean > 1 {
		return nil, fmt.Errorf("fgn: mean %v outside [0,1]", mean)
	}
	if scale < 0 {
		return nil, fmt.Errorf("fgn: negative scale %v", scale)
	}
	xs, err := Generate(rng, hurst, n)
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		v := mean + scale*x
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		xs[i] = v
	}
	return xs, nil
}
