package forecast

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nwscpu/internal/fgn"
	"nwscpu/internal/series"
	"nwscpu/internal/simos"
	"nwscpu/internal/stats"
	"nwscpu/internal/workload"
)

// This file pins the incremental forecasting kernel to the seed
// implementation bit for bit: the seed's copy-and-sort window forecasters
// and its O(bank × window) selector are reproduced below verbatim (metrics
// stripped), and every forwarded prediction — value, selected member and its
// errors — and the final per-member report must match the production kernel
// exactly over recorded simulator traces. If these pass, the incremental
// rewrite cannot have moved a single number in the paper's tables (Tables
// 2/3/5/6 all flow through Engine forecasts).
//
// SlidingMean is deliberately shared between both sides: its periodic sum
// resynchronization is an intentional ulp-level numeric bugfix (see
// TestSlidingMeanNoDriftLongRun), not part of the kernel restructuring
// under test here.

// --- seed window forecasters (copy-and-sort, as before this change) ---

type seedRingWindow struct {
	ring    *series.Ring
	scratch []float64
}

func newSeedRingWindow(capacity int) seedRingWindow {
	return seedRingWindow{ring: series.NewRing(capacity), scratch: make([]float64, 0, capacity)}
}

type seedSlidingMedian struct {
	name string
	win  seedRingWindow
}

func (f *seedSlidingMedian) Name() string     { return f.name }
func (f *seedSlidingMedian) Update(v float64) { f.win.ring.Push(v) }
func (f *seedSlidingMedian) Forecast() (float64, bool) {
	if f.win.ring.Len() == 0 {
		return 0, false
	}
	f.win.scratch = f.win.ring.Values(f.win.scratch)
	return stats.Median(f.win.scratch), true
}

type seedTrimmedMean struct {
	name string
	trim float64
	win  seedRingWindow
}

func (f *seedTrimmedMean) Name() string     { return f.name }
func (f *seedTrimmedMean) Update(v float64) { f.win.ring.Push(v) }
func (f *seedTrimmedMean) Forecast() (float64, bool) {
	if f.win.ring.Len() == 0 {
		return 0, false
	}
	f.win.scratch = f.win.ring.Values(f.win.scratch)
	return stats.TrimmedMean(f.win.scratch, f.trim), true
}

// --- seed engine (re-poll + re-sum selection, as before this change) ---

type seedTracker struct {
	f          Forecaster
	pending    float64
	hasPending bool
	sumAbs     float64
	sumSq      float64
	n          int
	winAbs     *series.Ring
	winSq      *series.Ring
}

func (t *seedTracker) record(absErr, sqErr float64) {
	t.sumAbs += absErr
	t.sumSq += sqErr
	t.n++
	if t.winAbs != nil {
		t.winAbs.Push(absErr)
		t.winSq.Push(sqErr)
	}
}

func (t *seedTracker) score(by SelectBy) float64 {
	if t.winAbs != nil && t.winAbs.Len() > 0 {
		ring := t.winAbs
		if by == ByMSE {
			ring = t.winSq
		}
		var sum float64
		for i := 0; i < ring.Len(); i++ {
			sum += ring.At(i)
		}
		return sum / float64(ring.Len())
	}
	if by == ByMSE {
		return t.mse()
	}
	return t.mae()
}

func (t *seedTracker) mae() float64 {
	if t.n == 0 {
		return math.Inf(1)
	}
	return t.sumAbs / float64(t.n)
}

func (t *seedTracker) mse() float64 {
	if t.n == 0 {
		return math.Inf(1)
	}
	return t.sumSq / float64(t.n)
}

type seedEngine struct {
	trackers []*seedTracker
	selectBy SelectBy
	n        int
}

func newSeedEngine(selectBy SelectBy, selectWindow int, bank []Forecaster) *seedEngine {
	ts := make([]*seedTracker, len(bank))
	for i, f := range bank {
		ts[i] = &seedTracker{f: f}
		if selectWindow > 0 {
			ts[i].winAbs = series.NewRing(selectWindow)
			ts[i].winSq = series.NewRing(selectWindow)
		}
	}
	return &seedEngine{trackers: ts, selectBy: selectBy}
}

func (e *seedEngine) Update(v float64) {
	for _, t := range e.trackers {
		if t.hasPending {
			d := t.pending - v
			t.record(math.Abs(d), d*d)
		}
		t.f.Update(v)
		t.pending, t.hasPending = t.f.Forecast()
	}
	e.n++
}

func (e *seedEngine) Forecast() (Prediction, bool) {
	best := -1
	bestScore := math.Inf(1)
	for i, t := range e.trackers {
		if !t.hasPending {
			continue
		}
		score := t.score(e.selectBy)
		if best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best == -1 {
		return Prediction{}, false
	}
	t := e.trackers[best]
	return Prediction{Value: t.pending, Method: t.f.Name(), MAE: t.mae()}, true
}

// seedBank mirrors DefaultBank with the seed window implementations.
func seedBank() []Forecaster {
	return []Forecaster{
		NewLastValue(),
		NewRunningMean(),
		newSlidingMean(5),
		newSlidingMean(10),
		newSlidingMean(20),
		newSlidingMean(30),
		newSlidingMean(50),
		&seedSlidingMedian{name: "sw_median_5", win: newSeedRingWindow(5)},
		&seedSlidingMedian{name: "sw_median_10", win: newSeedRingWindow(10)},
		&seedSlidingMedian{name: "sw_median_20", win: newSeedRingWindow(20)},
		&seedSlidingMedian{name: "sw_median_30", win: newSeedRingWindow(30)},
		&seedSlidingMedian{name: "sw_median_50", win: newSeedRingWindow(50)},
		&seedTrimmedMean{name: "sw_trim_30_30", trim: 0.3, win: newSeedRingWindow(30)},
		&seedTrimmedMean{name: "sw_trim_50_20", trim: 0.2, win: newSeedRingWindow(50)},
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

// goldenTraces returns the recorded traces the equivalence is proven over:
// a time-shared-host availability series recorded from the simos simulator
// under the thing1 workload, a self-similar fGn availability trace (the
// paper's statistical model, H = 0.9), a regime-switching series, and a
// tie-heavy flat series with level jumps.
func goldenTraces(t *testing.T) map[string][]float64 {
	t.Helper()
	traces := make(map[string][]float64)

	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, workload.Thing1().Generate(6*3600))
	var sim []float64
	for tick := 10.0; tick <= 6*3600; tick += 10 {
		h.RunUntil(tick)
		sim = append(sim, 1/(1+h.LoadAvg()))
	}
	traces["simos_thing1"] = sim

	fg, err := fgn.AvailabilityTrace(rand.New(rand.NewSource(9)), 0.9, 0.6, 0.15, 2048)
	if err != nil {
		t.Fatalf("fgn trace: %v", err)
	}
	traces["fgn_h09"] = fg

	rng := rand.New(rand.NewSource(10))
	regime := make([]float64, 3000)
	level := 0.5
	for i := range regime {
		if rng.Float64() < 0.01 {
			level = rng.Float64()
		}
		regime[i] = level + rng.NormFloat64()*0.05
	}
	traces["regime"] = regime

	flat := make([]float64, 1200)
	for i := range flat {
		flat[i] = 0.25 + 0.5*float64(i/300) // exact ties within each plateau
	}
	traces["flat_jumps"] = flat

	return traces
}

func TestGoldenEquivalenceWithSeedKernel(t *testing.T) {
	configs := []struct {
		name   string
		by     SelectBy
		window int
	}{
		{"cumulative_mae", ByMAE, 0},
		{"cumulative_mse", ByMSE, 0},
		{"windowed25_mae", ByMAE, 25},
		{"windowed50_mse", ByMSE, 50},
	}
	for name, trace := range goldenTraces(t) {
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				eng := NewWindowedEngine(cfg.by, cfg.window, DefaultBank()...)
				ref := newSeedEngine(cfg.by, cfg.window, seedBank())
				for i, v := range trace {
					eng.Update(v)
					ref.Update(v)
					got, gotOK := eng.Forecast()
					want, wantOK := ref.Forecast()
					if gotOK != wantOK || got != want {
						t.Fatalf("step %d: forecast = %+v (%v), seed = %+v (%v)",
							i, got, gotOK, want, wantOK)
					}
				}
				if got, want := eng.Report(), mapSeedReport(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("reports diverged:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

func mapSeedReport(e *seedEngine) []MethodError {
	out := make([]MethodError, len(e.trackers))
	for i, t := range e.trackers {
		out[i] = MethodError{Name: t.f.Name(), MAE: t.mae(), MSE: t.mse(), N: t.n}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MAE < out[j].MAE })
	return out
}

// The window forecasters individually must match their seed counterparts
// bit for bit on random data — this localizes a kernel divergence to the
// member that caused it.
func TestGoldenWindowForecasterEquivalence(t *testing.T) {
	pairs := []struct {
		name string
		inc  Forecaster
		seed Forecaster
	}{
		{"median5", newSlidingMedian(5), &seedSlidingMedian{name: "sw_median_5", win: newSeedRingWindow(5)}},
		{"median50", newSlidingMedian(50), &seedSlidingMedian{name: "sw_median_50", win: newSeedRingWindow(50)}},
		{"trim_30_30", newTrimmedMean(30, 0.3), &seedTrimmedMean{name: "sw_trim_30_30", trim: 0.3, win: newSeedRingWindow(30)}},
		{"trim_50_20", newTrimmedMean(50, 0.2), &seedTrimmedMean{name: "sw_trim_50_20", trim: 0.2, win: newSeedRingWindow(50)}},
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		var v float64
		if i%11 == 0 {
			v = float64(rng.Intn(3)) // duplicates and exact ties
		} else {
			v = rng.NormFloat64() * 10
		}
		for _, p := range pairs {
			p.inc.Update(v)
			p.seed.Update(v)
			gv, gok := p.inc.Forecast()
			wv, wok := p.seed.Forecast()
			if gok != wok || gv != wv {
				t.Fatalf("%s step %d: forecast = %v (%v), seed = %v (%v)", p.name, i, gv, gok, wv, wok)
			}
		}
	}
}

// The engine's steady-state hot path must not allocate at all: Update over
// a full DefaultBank, plus the O(1) query surface.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewDefaultEngine()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 600; i++ {
		e.Update(rng.Float64())
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		e.Update(float64(i%89) / 89)
		if _, ok := e.Forecast(); !ok {
			t.Fatal("no forecast")
		}
		_ = bestMethod(e)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}
