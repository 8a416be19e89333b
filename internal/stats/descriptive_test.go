package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumKahanPrecision(t *testing.T) {
	// One large value followed by many tiny ones: naive summation loses the
	// tiny contributions, Kahan keeps them.
	xs := make([]float64, 1_000_001)
	xs[0] = 1e8
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-8
	}
	want := 1e8 + 1e6*1e-8
	if got := Sum(xs); !almostEq(got, want, 1e-8) {
		t.Fatalf("Sum = %.12f, want %.12f", got, want)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known example: population variance 4, sample variance 32/7.
	if got := PopVariance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("PopVariance = %v, want 4", got)
	}
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceShortSamples(t *testing.T) {
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance(single) = %v", got)
	}
	if got := PopVariance([]float64{3}); got != 0 {
		t.Fatalf("PopVariance(single) = %v", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v, want 2.5", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileClamps(t *testing.T) {
	xs := []float64{1, 2}
	if got := Quantile(xs, -1); got != 1 {
		t.Fatalf("Quantile(-1) = %v", got)
	}
	if got := Quantile(xs, 2); got != 2 {
		t.Fatalf("Quantile(2) = %v", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, -100} // outliers at both ends
	if got := TrimmedMean(xs, 0.2); !almostEq(got, 3, 1e-12) {
		t.Fatalf("TrimmedMean = %v, want 3", got)
	}
	if got := TrimmedMean(xs, 0); got != Mean(xs) {
		t.Fatalf("TrimmedMean(0) != Mean")
	}
	if got := TrimmedMean(xs, 0.6); got != Median(xs) {
		t.Fatalf("TrimmedMean(0.6) != Median")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	zero := Summarize(nil)
	if zero != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v", zero)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{"Min": Min, "Max": Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			f(nil)
		}()
	}
}

// Property: mean lies between min and max; variance is non-negative;
// quantiles are monotone in q.
func TestDescriptiveProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		if m < Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			return false
		}
		if Variance(xs) < 0 || PopVariance(xs) < 0 {
			return false
		}
		q1, q2 := Quantile(xs, 0.3), Quantile(xs, 0.7)
		return q1 <= q2+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: affine transform y = a*x + b maps Mean and Median accordingly and
// scales StdDev by |a|.
func TestAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		a := rng.Float64()*4 - 2
		b := rng.Float64()*10 - 5
		ys := make([]float64, n)
		for i := range xs {
			ys[i] = a*xs[i] + b
		}
		if !almostEq(Mean(ys), a*Mean(xs)+b, 1e-6) {
			t.Fatalf("mean affine violated (a=%v b=%v)", a, b)
		}
		if !almostEq(math.Sqrt(Variance(ys)), math.Abs(a)*math.Sqrt(Variance(xs)), 1e-6) {
			t.Fatalf("stddev affine violated (a=%v b=%v)", a, b)
		}
	}
}

// sanitize strips NaN/Inf values that testing/quick may generate, since the
// statistics functions document behavior only for finite inputs.
func sanitize(raw []float64) []float64 {
	xs := raw[:0:0]
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
			xs = append(xs, x)
		}
	}
	return xs
}
