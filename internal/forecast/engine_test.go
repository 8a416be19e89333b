package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nwscpu/internal/series"
)

// bestMethod is the name of the member e would forward now, "" before any
// member can forecast. It reads without counting a served forecast.
func bestMethod(e *Engine) string {
	p, _ := e.forecast()
	return p.Method
}

func TestEngineEmptyBankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty bank accepted")
		}
	}()
	NewEngine(ByMAE)
}

func TestEngineDuplicateNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate names accepted")
		}
	}()
	NewEngine(ByMAE, NewLastValue(), NewLastValue())
}

func TestEngineNoForecastBeforeData(t *testing.T) {
	e := NewDefaultEngine()
	if _, ok := e.Forecast(); ok {
		t.Fatal("engine forecast before any data")
	}
	if bestMethod(e) != "" {
		t.Fatal("best method before data should be empty")
	}
	e.Update(0.5)
	if _, ok := e.Forecast(); !ok {
		t.Fatal("engine should forecast after one value")
	}
	if e.N() != 1 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestEngineConstantSeries(t *testing.T) {
	e := NewDefaultEngine()
	for i := 0; i < 200; i++ {
		e.Update(0.42)
	}
	p, ok := e.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if math.Abs(p.Value-0.42) > 1e-9 {
		t.Fatalf("forecast = %v, want 0.42", p.Value)
	}
	if p.MAE > 1e-9 {
		t.Fatalf("MAE on constant series = %v, want 0", p.MAE)
	}
}

func TestEnginePicksLastValueOnRandomWalk(t *testing.T) {
	// On a random walk, last-value is the optimal one-step predictor among
	// the bank; the selector must find it.
	rng := rand.New(rand.NewSource(23))
	e := NewEngine(ByMAE, NewLastValue(), NewRunningMean(), newSlidingMean(50))
	x := 0.0
	for i := 0; i < 5000; i++ {
		x += rng.NormFloat64()
		e.Update(x)
	}
	if got := bestMethod(e); got != "last_value" {
		t.Fatalf("best method = %q, want last_value", got)
	}
}

func TestEnginePicksMeanOnWhiteNoise(t *testing.T) {
	// On i.i.d. noise around a fixed level, the long mean beats last-value.
	rng := rand.New(rand.NewSource(24))
	e := NewEngine(ByMAE, NewLastValue(), NewRunningMean())
	for i := 0; i < 5000; i++ {
		e.Update(10 + rng.NormFloat64())
	}
	if got := bestMethod(e); got != "run_mean" {
		t.Fatalf("best method = %q, want run_mean", got)
	}
}

func TestEngineMixtureNearBestMember(t *testing.T) {
	// The NWS claim: the dynamic selection is about as accurate as the best
	// individual member. Allow 15% slack for switching cost.
	rng := rand.New(rand.NewSource(25))
	vals := make([]float64, 4000)
	level := 0.5
	for i := range vals {
		if rng.Float64() < 0.01 {
			level = rng.Float64()
		}
		vals[i] = level + rng.NormFloat64()*0.05
	}
	engRes, report, err := EvaluateEngine(NewDefaultEngine, vals)
	if err != nil {
		t.Fatal(err)
	}
	bestMAE := report[0].MAE
	if engRes.MAE > bestMAE*1.15 {
		t.Fatalf("engine MAE %v much worse than best member %v (%s)",
			engRes.MAE, bestMAE, report[0].Name)
	}
}

func TestEngineMSESelection(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	e := NewEngine(ByMSE, NewLastValue(), NewRunningMean())
	for i := 0; i < 3000; i++ {
		e.Update(rng.NormFloat64())
	}
	p, ok := e.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if p.Method != "run_mean" {
		t.Fatalf("MSE selector chose %q, want run_mean", p.Method)
	}
	for _, m := range e.Report() {
		if m.Name == p.Method && m.MSE <= 0 {
			t.Fatalf("MSE = %v", m.MSE)
		}
	}
}

func TestEngineReportSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	e := NewDefaultEngine()
	for i := 0; i < 500; i++ {
		e.Update(rng.Float64())
	}
	rep := e.Report()
	if len(rep) != len(DefaultBank()) {
		t.Fatalf("report size = %d", len(rep))
	}
	for i := 1; i < len(rep); i++ {
		if rep[i-1].MAE > rep[i].MAE {
			t.Fatalf("report not sorted at %d: %v > %v", i, rep[i-1].MAE, rep[i].MAE)
		}
	}
	for _, m := range rep {
		if m.N == 0 {
			t.Fatalf("method %s never scored", m.Name)
		}
	}
}

// evaluateOne scores a single forecaster through EvaluateEngine, the path
// the ablations take, as the engine's only member.
func evaluateOne(f Forecaster, values []float64) (EvalResult, error) {
	res, _, err := EvaluateEngine(func() *Engine { return NewEngine(ByMAE, f) }, values)
	return res, err
}

func TestEvaluateMatchesManualMAE(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	res, err := evaluateOne(NewLastValue(), vals)
	if err != nil {
		t.Fatal(err)
	}
	// Forecasts: NaN, 1, 2, 3 -> errors 1,1,1 -> MAE 1.
	if res.N != 3 || math.Abs(res.MAE-1) > 1e-12 {
		t.Fatalf("res = %+v", res)
	}
	if !math.IsNaN(res.Forecasts[0]) || res.Forecasts[1] != 1 {
		t.Fatalf("forecasts = %v", res.Forecasts)
	}
	if math.Abs(res.RMSE-1) > 1e-12 {
		t.Fatalf("RMSE = %v", res.RMSE)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, _, err := EvaluateEngine(NewDefaultEngine, nil); err == nil {
		t.Fatal("empty series accepted by EvaluateEngine")
	}
}

func TestEvaluateEngineForecastsAligned(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	res, _, err := EvaluateEngine(NewDefaultEngine, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forecasts) != len(vals) {
		t.Fatalf("forecast length %d", len(res.Forecasts))
	}
	for i := 1; i < len(vals); i++ {
		if res.Forecasts[i] != 5 {
			t.Fatalf("forecast[%d] = %v", i, res.Forecasts[i])
		}
	}
}

func TestWindowedEngineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative window accepted")
		}
	}()
	NewWindowedEngine(ByMAE, -1, NewLastValue())
}

func TestWindowedSelectionAdaptsFaster(t *testing.T) {
	// Phase 1: white noise around a level (running mean wins). Phase 2:
	// random walk (last value wins). A short selection window must switch
	// to last_value faster than the cumulative selector.
	mkVals := func() []float64 {
		rng := rand.New(rand.NewSource(41))
		vals := make([]float64, 0, 4000)
		for i := 0; i < 2000; i++ {
			vals = append(vals, 10+rng.NormFloat64()*0.1)
		}
		x := 10.0
		for i := 0; i < 2000; i++ {
			x += rng.NormFloat64()
			vals = append(vals, x)
		}
		return vals
	}
	switchPoint := func(newEng func() *Engine) int {
		e := newEng()
		vals := mkVals()
		for i, v := range vals {
			e.Update(v)
			if i > 2000 && bestMethod(e) == "last_value" {
				return i - 2000
			}
		}
		return len(vals)
	}
	bank := func() []Forecaster { return []Forecaster{NewLastValue(), NewRunningMean()} }
	cumulative := switchPoint(func() *Engine { return NewEngine(ByMAE, bank()...) })
	windowed := switchPoint(func() *Engine { return NewWindowedEngine(ByMAE, 50, bank()...) })
	if windowed >= cumulative {
		t.Fatalf("windowed selection (%d steps) not faster than cumulative (%d)", windowed, cumulative)
	}
	if windowed > 200 {
		t.Fatalf("windowed selection too slow: %d steps", windowed)
	}
}

func TestWindowedEngineConstantSeries(t *testing.T) {
	e := NewWindowedEngine(ByMAE, 20, DefaultBank()...)
	for i := 0; i < 100; i++ {
		e.Update(0.3)
	}
	p, ok := e.Forecast()
	if !ok || math.Abs(p.Value-0.3) > 1e-9 {
		t.Fatalf("windowed engine on constant series: %v %v", p.Value, ok)
	}
}

// newHistory returns a history keeping the last size values, with one
// sorted window per length in lengths.
func newHistory(size int, lengths ...int) *history {
	h := &history{buf: make([]float64, size), wins: make([]series.OrderWindow, len(lengths))}
	for i, l := range lengths {
		h.wins[i] = make(series.OrderWindow, 0, l)
	}
	return h
}

// newSlidingMean, newSlidingMedian and newTrimmedMean build a member alone,
// over a history of its own.

func newSlidingMean(w int) *SlidingMean {
	f := slidingMean(fmt.Sprintf("sw_mean_%d", w), newHistory(w+1), w)
	return &f
}

func newSlidingMedian(w int) *SlidingMedian {
	f := slidingMedian(fmt.Sprintf("sw_median_%d", w), newHistory(w+1, w), w)
	return &f
}

func newTrimmedMean(w int, trim float64) *TrimmedMean {
	f := trimmedMean(fmt.Sprintf("sw_trim_%d_%02.0f", w, trim*100), newHistory(w+1, w), w, trim)
	return &f
}

// aloneBank is DefaultBank with every member built alone, so each owns its
// history.
func aloneBank() []Forecaster {
	return []Forecaster{
		NewLastValue(),
		NewRunningMean(),
		newSlidingMean(5),
		newSlidingMean(10),
		newSlidingMean(20),
		newSlidingMean(30),
		newSlidingMean(50),
		newSlidingMedian(5),
		newSlidingMedian(10),
		newSlidingMedian(20),
		newSlidingMedian(30),
		newSlidingMedian(50),
		newTrimmedMean(30, 0.3),
		newTrimmedMean(50, 0.2),
		NewExpSmooth("exp_05", 0.05),
		NewExpSmooth("exp_10", 0.10),
		NewExpSmooth("exp_20", 0.20),
		NewExpSmooth("exp_30", 0.30),
		NewExpSmooth("exp_50", 0.50),
		NewExpSmooth("exp_75", 0.75),
		NewExpSmooth("exp_90", 0.90),
		NewTriggLeach(0.2),
		NewTrend(0.5),
	}
}

// histories returns the distinct histories a bank's members push.
func histories(bank []Forecaster) map[*history]bool {
	hs := make(map[*history]bool)
	for _, f := range bank {
		switch f := f.(type) {
		case *SlidingMean:
			hs[f.hist] = true
		case *SlidingMedian:
			hs[f.hist] = true
		case *TrimmedMean:
			hs[f.hist] = true
		}
	}
	return hs
}

func bankMember(bank []Forecaster, name string) Forecaster {
	for _, f := range bank {
		if f.Name() == name {
			return f
		}
	}
	panic("no bank member " + name)
}

// The members of one DefaultBank push each measurement into one history (a
// 51-value ring and one sorted window per distinct length), loudly refuse to
// be fed out of lockstep, and forecast exactly as the same members built
// alone, each over a history of its own.
func TestDefaultBankSharesWindows(t *testing.T) {
	bank, alone := DefaultBank(), aloneBank()
	for i := range bank {
		if bank[i].Name() != alone[i].Name() {
			t.Fatalf("member %d: DefaultBank has %q, aloneBank %q", i, bank[i].Name(), alone[i].Name())
		}
	}
	hs := histories(bank)
	if len(hs) != 1 {
		t.Fatalf("DefaultBank pushes %d histories, want 1", len(hs))
	}
	for h := range hs {
		var lens []int
		for _, s := range h.wins {
			lens = append(lens, cap(s))
		}
		if len(h.buf) != 51 || !reflect.DeepEqual(lens, []int{5, 10, 20, 30, 50}) {
			t.Fatalf("DefaultBank's history: ring of %d, sorted windows %v; want 51 and [5 10 20 30 50]", len(h.buf), lens)
		}
	}
	// 5 sliding means, 5 sliding medians, 2 trimmed means.
	if n := len(histories(alone)); n != 12 {
		t.Fatalf("members built alone push %d histories, want 12, one each", n)
	}

	t.Run("lockstep", func(t *testing.T) {
		bank := DefaultBank()
		med, trim := bankMember(bank, "sw_median_5"), bankMember(bank, "sw_trim_50_20")
		med.Update(0.1)
		trim.Update(0.1)
		med.Update(0.2)
		med.Update(0.3) // sw_trim_50_20's second value is now behind the window
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "fed out of lockstep") {
				t.Fatalf("member fed behind its shared window: recover() = %v, want a lockstep panic", r)
			}
		}()
		trim.Update(0.2)
	})

	for name, trace := range goldenTraces(t) {
		for _, cfg := range []struct {
			name   string
			by     SelectBy
			window int
		}{{"cumulative_mae", ByMAE, 0}, {"windowed25_mse", ByMSE, 25}} {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				shared := NewWindowedEngine(cfg.by, cfg.window, DefaultBank()...)
				alone := NewWindowedEngine(cfg.by, cfg.window, aloneBank()...)
				for i, v := range trace {
					shared.Update(v)
					alone.Update(v)
					got, gotOK := shared.Forecast()
					want, wantOK := alone.Forecast()
					if gotOK != wantOK || got != want {
						t.Fatalf("step %d: shared bank %+v (%v), members alone %+v (%v)", i, got, gotOK, want, wantOK)
					}
				}
				if got, want := shared.Report(), alone.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("reports diverged:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// A warmed default engine, the state a forecaster keeps per series, fits in
// 4.25 KB and 8 heap objects, and building one takes at most 6 allocations;
// it measured 4 137 B in 3. Before each bank shared one history and became
// one allocation, it was 8 664 B in 108 objects. A windowed engine over the
// same bank, as the selection-window ablation builds, adds one error window
// per member that holds its two rings by value: 50 objects, 104 when they
// were pointers. These are counts, not timings, so they hold on any box.
func TestDefaultEngineFootprint(t *testing.T) {
	for _, tc := range []struct {
		name           string
		build          func() *Engine
		bytes, objects float64
		allocsToBuild  float64
	}{
		{"default", NewDefaultEngine, 4352, 8, 6},
		{"windowed", func() *Engine { return NewWindowedEngine(ByMAE, 25, DefaultBank()...) }, 17 * 1024, 52, 52},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const engines = 1000
			vals := benchValues(128)
			all := make([]*Engine, engines)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := range all {
				all[k] = tc.build()
				for _, v := range vals {
					all[k].Update(v)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(all)
			bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / engines
			objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / engines
			allocs := testing.AllocsPerRun(100, func() { tc.build() })
			t.Logf("warmed engine: %.0f B in %.2f heap objects; %v allocations to build", bytes, objects, allocs)
			if bytes > tc.bytes || objects > tc.objects {
				t.Fatalf("warmed engine holds %.0f B in %.2f heap objects, want <= %.0f B and <= %.0f", bytes, objects, tc.bytes, tc.objects)
			}
			if allocs > tc.allocsToBuild {
				t.Fatalf("building the engine costs %v allocations, want <= %v", allocs, tc.allocsToBuild)
			}
		})
	}
}
