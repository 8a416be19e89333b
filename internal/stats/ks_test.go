package stats

import (
	"math/rand"
	"testing"
)

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := KolmogorovSmirnov(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Fatalf("D = %v for identical samples", res.D)
	}
	if res.P < 0.99 {
		t.Fatalf("P = %v for identical samples, want ~1", res.P)
	}
}

func TestKSSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	res, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("P = %v, same-distribution samples rejected", res.P)
	}
	if res.D > 0.06 {
		t.Fatalf("D = %v, implausibly large for same distribution", res.D)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.5 // shifted
	}
	res, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("P = %v, shifted distributions not detected", res.P)
	}
	if res.D < 0.1 {
		t.Fatalf("D = %v, want substantial", res.D)
	}
}

func TestKSShortSamples(t *testing.T) {
	if _, err := KolmogorovSmirnov([]float64{1, 2, 3}, []float64{1, 2, 3, 4}); err != ErrShort {
		t.Fatalf("err = %v", err)
	}
}

func TestKSUnequalSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 100)
	ys := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	for i := range ys {
		ys[i] = rng.Float64()
	}
	res, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("P = %v on same uniform distribution", res.P)
	}
}

func TestKSProbabilityBounds(t *testing.T) {
	if p := ksProbability(0); p != 1 {
		t.Fatalf("Q(0) = %v", p)
	}
	if p := ksProbability(-1); p != 1 {
		t.Fatalf("Q(-1) = %v", p)
	}
	if p := ksProbability(10); p > 1e-10 {
		t.Fatalf("Q(10) = %v, want ~0", p)
	}
	// Known value: Q(1.0) ~ 0.27.
	if p := ksProbability(1.0); p < 0.25 || p > 0.29 {
		t.Fatalf("Q(1) = %v, want ~0.27", p)
	}
}
