package fgn

import (
	"math"
	"math/rand"
	"testing"

	"nwscpu/internal/stats"
)

func TestAutocovariance(t *testing.T) {
	// gamma(0) = 1 for any H (unit variance).
	for _, h := range []float64{0.3, 0.5, 0.7, 0.9} {
		if g := Autocovariance(h, 0); math.Abs(g-1) > 1e-12 {
			t.Fatalf("gamma(0) at H=%v is %v", h, g)
		}
	}
	// H = 0.5 is white noise: gamma(k) = 0 for k > 0.
	for k := 1; k < 10; k++ {
		if g := Autocovariance(0.5, k); math.Abs(g) > 1e-12 {
			t.Fatalf("white-noise gamma(%d) = %v", k, g)
		}
	}
	// H > 0.5: positive, decaying correlations; symmetric in k.
	prev := 1.0
	for k := 1; k < 50; k++ {
		g := Autocovariance(0.8, k)
		if g <= 0 || g >= prev {
			t.Fatalf("gamma(%d) = %v not positive decaying (prev %v)", k, g, prev)
		}
		if g != Autocovariance(0.8, -k) {
			t.Fatalf("gamma not symmetric at %d", k)
		}
		prev = g
	}
	// H < 0.5: negative lag-1 correlation (antipersistent).
	if g := Autocovariance(0.3, 1); g >= 0 {
		t.Fatalf("antipersistent gamma(1) = %v, want < 0", g)
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range []float64{0, 1, -0.5, 1.5} {
		if _, err := Generate(rng, h, 100); err == nil {
			t.Errorf("Hurst %v accepted", h)
		}
	}
	if _, err := Generate(rng, 0.7, 0); err == nil {
		t.Error("n = 0 accepted")
	}
}

func TestGenerateMomentsAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range []float64{0.3, 0.5, 0.7, 0.9} {
		xs, err := Generate(rng, h, 1<<14)
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		if len(xs) != 1<<14 {
			t.Fatalf("length %d", len(xs))
		}
		m := stats.Mean(xs)
		v := stats.Variance(xs)
		// Long-memory sample means converge slowly; loose bands.
		if math.Abs(m) > 0.3 {
			t.Fatalf("H=%v: mean %v, want ~0", h, m)
		}
		if v < 0.7 || v > 1.4 {
			t.Fatalf("H=%v: variance %v, want ~1", h, v)
		}
	}
}

func TestGenerateEmpiricalAutocovariance(t *testing.T) {
	// Average the lag-1 sample autocovariance over many replicates and
	// compare to the closed form.
	const h = 0.75
	want := Autocovariance(h, 1)
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const reps = 40
	for r := 0; r < reps; r++ {
		xs, err := Generate(rng, h, 4096)
		if err != nil {
			t.Fatal(err)
		}
		sum += stats.Autocovariance(xs, 1)
	}
	got := sum / reps
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("empirical gamma(1) = %v, want %v", got, want)
	}
}

// The decisive cross-validation: generate fGn with known H and check that
// both Hurst estimators in package stats recover it.
func TestHurstEstimatorsRecoverKnownH(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, h := range []float64{0.6, 0.7, 0.8} {
		xs, err := Generate(rng, h, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := stats.HurstRS(xs, 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rs-h) > 0.12 {
			t.Errorf("R/S estimate %v for true H %v", rs, h)
		}
		gph, _, err := stats.HurstGPH(xs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gph-h) > 0.12 {
			t.Errorf("GPH estimate %v for true H %v", gph, h)
		}
	}
}

func TestAvailabilityTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, err := AvailabilityTrace(rng, 0.7, 0.7, 0.15, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		if v < 0 || v > 1 {
			t.Fatalf("value %v out of [0,1]", v)
		}
	}
	m := stats.Mean(xs)
	if m < 0.55 || m > 0.85 {
		t.Fatalf("mean %v, want ~0.7", m)
	}
	if _, err := AvailabilityTrace(rng, 0.7, 2, 0.1, 10); err == nil {
		t.Fatal("bad mean accepted")
	}
	if _, err := AvailabilityTrace(rng, 0.7, 0.5, -1, 10); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestGenerateHalfIsGaussianWhite(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, err := Generate(rng, 0.5, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	if lb := stats.LjungBox(xs, 20); lb > 60 {
		t.Fatalf("H=0.5 output is autocorrelated: LjungBox %v", lb)
	}
}

func BenchmarkGenerate64k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rng, 0.7, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}
