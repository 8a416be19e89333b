package forecast

import (
	"math"
	"math/rand"
	"testing"

	"nwscpu/internal/fgn"
)

func TestARValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewAR(0, 100, 10) },
		func() { NewAR(5, 10, 10) }, // window < 4*order
		func() { NewAR(2, 100, 0) },
		func() { NewSeasonal(1, 3) },
		func() { NewSeasonal(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestARConstantSeries(t *testing.T) {
	f := NewAR(4, 64, 8)
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty AR should not forecast")
	}
	for i := 0; i < 100; i++ {
		f.Update(0.6)
	}
	v, ok := f.Forecast()
	if !ok || math.Abs(v-0.6) > 1e-9 {
		t.Fatalf("constant AR forecast = %v, %v", v, ok)
	}
}

func TestARBeforeFitFallsBackToLast(t *testing.T) {
	f := NewAR(4, 64, 8)
	f.Update(0.3)
	v, ok := f.Forecast()
	if !ok || v != 0.3 {
		t.Fatalf("pre-fit forecast = %v, %v, want last value", v, ok)
	}
}

func TestARRecoversAR1Process(t *testing.T) {
	// x_t = 0.8 x_{t-1} + eps: the AR(2) fit should recover phi1 ~ 0.8 and
	// have clearly lower one-step error than the running mean.
	rng := rand.New(rand.NewSource(11))
	var xs []float64
	x := 0.0
	for i := 0; i < 6000; i++ {
		x = 0.8*x + rng.NormFloat64()
		xs = append(xs, x)
	}
	arRes, err := evaluateOne(NewAR(2, 200, 10), xs)
	if err != nil {
		t.Fatal(err)
	}
	meanRes, err := evaluateOne(NewRunningMean(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if arRes.MAE >= meanRes.MAE*0.75 {
		t.Fatalf("AR MAE %v not clearly below running mean %v on AR(1) data",
			arRes.MAE, meanRes.MAE)
	}
	// Theoretical optimum: MAE of eps ~ E|N(0,1)| = 0.798.
	if arRes.MAE > 0.9 {
		t.Fatalf("AR MAE %v, want near 0.8 (innovation MAE)", arRes.MAE)
	}
}

func TestARBeatsLastValueOnAntipersistentNoise(t *testing.T) {
	// Antipersistent fGn (H = 0.25) has negative lag-1 correlation that only
	// a model-based predictor exploits.
	rng := rand.New(rand.NewSource(12))
	xs, err := fgn.Generate(rng, 0.25, 8192)
	if err != nil {
		t.Fatal(err)
	}
	arRes, err := evaluateOne(NewAR(4, 200, 10), xs)
	if err != nil {
		t.Fatal(err)
	}
	lastRes, err := evaluateOne(NewLastValue(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if arRes.MAE >= lastRes.MAE {
		t.Fatalf("AR MAE %v not below last-value %v on antipersistent noise",
			arRes.MAE, lastRes.MAE)
	}
}

func TestLevinsonDurbinKnownSystem(t *testing.T) {
	// AR(1) with phi = 0.5, sigma = 1: gamma(k) = phi^k / (1 - phi^2).
	phi := 0.5
	g0 := 1 / (1 - phi*phi)
	r := []float64{g0, phi * g0, phi * phi * g0}
	coef := levinsonDurbin(r)
	if math.Abs(coef[0]-phi) > 1e-9 {
		t.Fatalf("phi1 = %v, want %v", coef[0], phi)
	}
	if math.Abs(coef[1]) > 1e-9 {
		t.Fatalf("phi2 = %v, want 0", coef[1])
	}
}

func TestSeasonalPredictsCycle(t *testing.T) {
	// Perfect period-24 cycle: once two periods are seen, prediction error
	// should be zero.
	f := NewSeasonal(24, 4)
	cycle := func(i int) float64 { return 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/24) }
	for i := 0; i < 48; i++ {
		f.Update(cycle(i))
	}
	for i := 48; i < 96; i++ {
		pred, ok := f.Forecast()
		if !ok {
			t.Fatal("no forecast")
		}
		if math.Abs(pred-cycle(i)) > 1e-9 {
			t.Fatalf("seasonal forecast at %d = %v, want %v", i, pred, cycle(i))
		}
		f.Update(cycle(i))
	}
}

func TestSeasonalFallbackBeforeFullPeriod(t *testing.T) {
	f := NewSeasonal(10, 2)
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty seasonal should not forecast")
	}
	f.Update(0.4)
	v, ok := f.Forecast()
	if !ok || v != 0.4 {
		t.Fatalf("fallback = %v, %v", v, ok)
	}
}

func TestSeasonalBeatsWindowsOnCyclicSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs []float64
	for i := 0; i < 2000; i++ {
		xs = append(xs, 0.5+0.35*math.Sin(2*math.Pi*float64(i)/100)+rng.NormFloat64()*0.02)
	}
	res, report, err := EvaluateEngine(func() *Engine { return NewExtendedEngine(100) }, xs)
	if err != nil {
		t.Fatal(err)
	}
	if report[0].Name != "seasonal_100" {
		t.Fatalf("best method on cyclic series = %s, want seasonal_100 (report head MAE %v)",
			report[0].Name, report[0].MAE)
	}
	if res.MAE > 0.05 {
		t.Fatalf("engine MAE on cyclic series = %v", res.MAE)
	}
}

func TestExtendedBankUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range ExtendedBank(8640) {
		if seen[f.Name()] {
			t.Fatalf("duplicate name %q", f.Name())
		}
		seen[f.Name()] = true
	}
	if len(ExtendedBank(0)) != len(DefaultBank())+3 {
		t.Fatal("seasonal should be omitted for period < 2")
	}
}

func TestHoltValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewHolt("h", 0, 0.5) },
		func() { NewHolt("h", 0.5, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHoltTracksLinearRamp(t *testing.T) {
	f := NewHolt("holt", 0.5, 0.5)
	if _, ok := f.Forecast(); ok {
		t.Fatal("empty Holt should not forecast")
	}
	// Perfect linear ramp: after warm-up, the one-step forecast is exact.
	for i := 0; i < 50; i++ {
		f.Update(float64(i) * 0.01)
	}
	pred, ok := f.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if math.Abs(pred-0.50) > 1e-6 {
		t.Fatalf("ramp forecast = %v, want 0.50", pred)
	}
}

func TestHoltBeatsSimpleSmoothingOnRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var vals []float64
	for i := 0; i < 2000; i++ {
		vals = append(vals, 0.001*float64(i)+rng.NormFloat64()*0.01)
	}
	holtRes, err := evaluateOne(NewHolt("holt", 0.3, 0.1), vals)
	if err != nil {
		t.Fatal(err)
	}
	expRes, err := evaluateOne(NewExpSmooth("exp", 0.3), vals)
	if err != nil {
		t.Fatal(err)
	}
	if holtRes.MAE >= expRes.MAE {
		t.Fatalf("Holt MAE %v not below simple smoothing %v on trending series",
			holtRes.MAE, expRes.MAE)
	}
}

func TestHoltSinglePointFallback(t *testing.T) {
	f := NewHolt("holt", 0.5, 0.5)
	f.Update(0.7)
	v, ok := f.Forecast()
	if !ok || v != 0.7 {
		t.Fatalf("single-point Holt = %v, %v", v, ok)
	}
}
