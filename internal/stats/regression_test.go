package stats

import (
	"math/rand"
	"testing"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = -3*xs[i] + 5 + rng.NormFloat64()*0.1
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, -3, 0.01) || !almostEq(fit.Intercept, 5, 0.05) {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v, want near 1", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Fatal("short sample not rejected")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x not rejected")
	}
}

func TestLinearRegressionFlatY(t *testing.T) {
	fit, err := LinearRegression([]float64{1, 2, 3}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 7 || fit.R2 != 0 {
		t.Fatalf("flat fit = %+v", fit)
	}
}
