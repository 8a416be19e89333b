package forecast

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func feed(f Forecaster, vs ...float64) {
	for _, v := range vs {
		f.Update(v)
	}
}

func mustForecast(t *testing.T, f Forecaster) float64 {
	t.Helper()
	v, ok := f.Forecast()
	if !ok {
		t.Fatalf("%s: Forecast not ready", f.Name())
	}
	return v
}

func TestLastValue(t *testing.T) {
	f := NewLastValue()
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty LastValue should not forecast")
	}
	feed(f, 1, 2, 7)
	if got := mustForecast(t, f); got != 7 {
		t.Fatalf("LastValue = %v, want 7", got)
	}
}

func TestRunningMean(t *testing.T) {
	f := NewRunningMean()
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty RunningMean should not forecast")
	}
	feed(f, 1, 2, 3, 4)
	if got := mustForecast(t, f); got != 2.5 {
		t.Fatalf("RunningMean = %v, want 2.5", got)
	}
}

func TestExpSmooth(t *testing.T) {
	f := NewExpSmooth("exp", 0.5)
	feed(f, 10)
	if got := mustForecast(t, f); got != 10 {
		t.Fatalf("first value should seed the state, got %v", got)
	}
	feed(f, 20)
	if got := mustForecast(t, f); got != 15 {
		t.Fatalf("ExpSmooth = %v, want 15", got)
	}
}

func TestExpSmoothPanics(t *testing.T) {
	for _, g := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gain %v accepted", g)
				}
			}()
			NewExpSmooth("x", g)
		}()
	}
}

func TestTriggLeachTracksLevelShift(t *testing.T) {
	f := NewTriggLeach(0.2)
	for i := 0; i < 50; i++ {
		f.Update(1)
	}
	if got := mustForecast(t, f); math.Abs(got-1) > 1e-9 {
		t.Fatalf("steady state = %v, want 1", got)
	}
	// Level shift: the adaptive gain should converge quickly.
	for i := 0; i < 10; i++ {
		f.Update(5)
	}
	if got := mustForecast(t, f); math.Abs(got-5) > 0.2 {
		t.Fatalf("after shift = %v, want near 5", got)
	}
}

func TestTriggLeachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("phi 0 accepted")
		}
	}()
	NewTriggLeach(0)
}

func TestTrend(t *testing.T) {
	f := NewTrend(0.5)
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty Trend should not forecast")
	}
	feed(f, 10)
	if got := mustForecast(t, f); got != 10 {
		t.Fatalf("one-sample Trend = %v", got)
	}
	feed(f, 14)
	if got := mustForecast(t, f); got != 16 {
		t.Fatalf("Trend = %v, want 16 (= 14 + 0.5*4)", got)
	}
}

func TestTrendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("damping 0 accepted")
		}
	}()
	NewTrend(0)
}

func TestSlidingMean(t *testing.T) {
	f := newSlidingMean(3)
	feed(f, 1, 2, 3, 4) // window holds 2,3,4
	if got := mustForecast(t, f); got != 3 {
		t.Fatalf("SlidingMean = %v, want 3", got)
	}
	if f.Name() != "sw_mean_3" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestSlidingMeanPartialWindow(t *testing.T) {
	f := newSlidingMean(10)
	feed(f, 2, 4)
	if got := mustForecast(t, f); got != 3 {
		t.Fatalf("partial-window mean = %v, want 3", got)
	}
}

func TestSlidingMeanStaysAccurate(t *testing.T) {
	// Long run: incremental sum must not drift away from the exact mean.
	f := newSlidingMean(7)
	rng := rand.New(rand.NewSource(4))
	var last []float64
	for i := 0; i < 100000; i++ {
		v := rng.Float64()
		f.Update(v)
		last = append(last, v)
		if len(last) > 7 {
			last = last[1:]
		}
	}
	var sum float64
	for _, v := range last {
		sum += v
	}
	want := sum / float64(len(last))
	if got := mustForecast(t, f); math.Abs(got-want) > 1e-9 {
		t.Fatalf("drift: got %v, want %v", got, want)
	}
}

func TestSlidingMedian(t *testing.T) {
	f := newSlidingMedian(3)
	feed(f, 100, 1, 2, 9) // window 1,2,9
	if got := mustForecast(t, f); got != 2 {
		t.Fatalf("SlidingMedian = %v, want 2", got)
	}
	if _, ok := newSlidingMedian(5).Forecast(); ok {
		t.Fatal("empty median should not forecast")
	}
}

func TestTrimmedMean(t *testing.T) {
	f := newTrimmedMean(5, 0.2)
	feed(f, 100, 1, 2, 3, -50) // sorted: -50,1,2,3,100; trim 1 each side -> mean(1,2,3)=2
	if got := mustForecast(t, f); got != 2 {
		t.Fatalf("TrimmedMean = %v, want 2", got)
	}
}

func TestTrimmedMeanPanics(t *testing.T) {
	for _, trim := range []float64{0.5, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("trim %v accepted", trim)
				}
			}()
			newTrimmedMean(5, trim)
		}()
	}
}

// Property: every forecaster in the default bank, fed a constant series,
// predicts that constant. Each member comes from a fresh bank: members of
// one bank share windows and must be fed in lockstep.
func TestBankConstantSeries(t *testing.T) {
	for m := range DefaultBank() {
		f := DefaultBank()[m]
		for i := 0; i < 100; i++ {
			f.Update(0.75)
		}
		v, ok := f.Forecast()
		if !ok {
			t.Errorf("%s: no forecast after 100 updates", f.Name())
			continue
		}
		if math.Abs(v-0.75) > 1e-9 {
			t.Errorf("%s: constant series forecast = %v, want 0.75", f.Name(), v)
		}
	}
}

// Property: forecasts always lie within [min, max] of the values seen so far
// for every non-extrapolating bank member (Trend extrapolates by design).
// The inputs are availability-like: 1 to 300 values in [0, 1), so the
// longest windows fill and evict. Each member comes from a fresh bank.
func TestBankForecastsBounded(t *testing.T) {
	prop := func(vals []float64) bool {
		for m := range DefaultBank() {
			f := DefaultBank()[m]
			if f.Name() == "trend" {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, v := range vals {
				f.Update(v)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				p, ok := f.Forecast()
				if !ok || p < lo-1e-6 || p > hi+1e-6 {
					t.Errorf("%s step %d: forecast %v (ok %v) outside [%v, %v]", f.Name(), i, p, ok, lo, hi)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			vals := make([]float64, 1+rng.Intn(300))
			for i := range vals {
				vals[i] = rng.Float64()
			}
			args[0] = reflect.ValueOf(vals)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBankNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range DefaultBank() {
		if seen[f.Name()] {
			t.Fatalf("duplicate forecaster name %q", f.Name())
		}
		seen[f.Name()] = true
	}
}
