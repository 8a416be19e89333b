package forecast

import (
	"math"
	"math/rand"
	"testing"
)

// TestForecastCounterCountsOnlyExternalCalls pins the semantics of
// nws_forecast_engine_forecasts_total: only Engine.Forecast increments it.
// The seed implementation routed the selector's own bookkeeping (one
// selection per Update) and its view of the best member's name through Forecast,
// inflating the counter several-fold over the forecasts actually served to
// callers.
func TestForecastCounterCountsOnlyExternalCalls(t *testing.T) {
	e := NewDefaultEngine()
	rng := rand.New(rand.NewSource(41))

	before := mEngineForecasts.Value()
	for i := 0; i < 500; i++ {
		e.Update(rng.Float64())
		bestMethod(e)
	}
	if got := mEngineForecasts.Value() - before; got != 0 {
		t.Fatalf("internal reads incremented forecasts_total by %d, want 0", got)
	}

	const external = 37
	for i := 0; i < external; i++ {
		if _, ok := e.Forecast(); !ok {
			t.Fatal("Forecast not ok after 500 updates")
		}
	}
	if got := mEngineForecasts.Value() - before; got != external {
		t.Fatalf("forecasts_total delta = %d, want exactly %d external calls", got, external)
	}
}

// TestSlidingMeanDriftBounded drives a SlidingMean through ten million
// updates of a large-magnitude, heavily cancelling series and checks the
// maintained sum against a compensated fresh sum of the window, read from
// the member's history. The
// periodic resynchronization pins the drift at one window's worth of
// roundoff; without it the incremental sum random-walks away without bound.
func TestSlidingMeanDriftBounded(t *testing.T) {
	const w = 50
	f := newSlidingMean(w)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000_000; i++ {
		// Large offsets of alternating sign force cancellation in the
		// add/subtract updates, the worst case for incremental drift.
		v := 1e9 + 1e9*rng.Float64()
		if i%2 == 1 {
			v = -v
		}
		f.Update(v)
	}

	a, b := f.hist.tail(w)
	window := append(append([]float64(nil), a...), b...)
	var sum, c float64
	for _, x := range window {
		y := x - c
		tt := sum + y
		c = (tt - sum) - y
		sum = tt
	}
	// Between resyncs at most ~2*w add/subtract operations touch the sum,
	// each erring by at most one ulp of a window-sum-sized quantity.
	scale := math.Abs(sum)
	for _, x := range window {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	tol := 4 * w * 0x1p-52 * scale
	if diff := math.Abs(f.sum - sum); diff > tol {
		t.Fatalf("incremental sum drifted %g from fresh sum %g (tolerance %g)", diff, sum, tol)
	}
}

// TestTriggLeachFlatSeriesFallback pins the documented 0.5 fallback gain: on
// a perfectly flat series the smoothed absolute error stays zero, the
// tracking ratio would be 0/0, and the forecaster must keep forecasting the
// level exactly instead of poisoning its state with NaN.
func TestTriggLeachFlatSeriesFallback(t *testing.T) {
	const level = 0.375 // exactly representable
	f := NewTriggLeach(0.2)
	for i := 0; i < 1000; i++ {
		f.Update(level)
		v, ok := f.Forecast()
		if !ok {
			t.Fatal("Forecast not ok after Update")
		}
		if math.IsNaN(v) {
			t.Fatalf("step %d: forecast is NaN", i)
		}
		if v != level {
			t.Fatalf("step %d: forecast = %v, want exactly %v", i, v, level)
		}
	}
	if f.ae != 0 {
		t.Fatalf("smoothed absolute error = %v on a flat series, want 0 (fallback path not exercised)", f.ae)
	}
}

// refScore is the brute-force reference selection scorer: it keeps every
// member's full error history in a slice and re-sums the relevant span from
// scratch on every query, exactly as the seed engine scored its rings.
type refMember struct {
	f          Forecaster
	pending    float64
	hasPending bool
	errAbs     []float64
	errSq      []float64
}

func (m *refMember) score(by SelectBy, window int) float64 {
	errs := m.errAbs
	if by == ByMSE {
		errs = m.errSq
	}
	if len(errs) == 0 {
		return math.Inf(1)
	}
	start := 0
	if window > 0 && len(errs) > window {
		start = len(errs) - window
	}
	var sum float64
	for _, e := range errs[start:] {
		sum += e
	}
	return sum / float64(len(errs)-start)
}

// TestWindowedSelectionMatchesBruteForce drives windowed engines alongside an
// independent slice-backed reference scorer over a random series and requires
// the selected member to agree at every step. This is the end-to-end check
// that the incremental windowed sums (with their near-tie refinement) never
// change which member the engine forwards — including the exact ties between
// members that track the series identically, which the reference breaks by
// bank order just as the seed did.
func TestWindowedSelectionMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		by     SelectBy
		window int
	}{
		{"mae_w5", ByMAE, 5},
		{"mae_w25", ByMAE, 25},
		{"mse_w25", ByMSE, 25},
		{"mae_w50", ByMAE, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewWindowedEngine(tc.by, tc.window, DefaultBank()...)
			refBank := DefaultBank()
			ref := make([]*refMember, len(refBank))
			for i, f := range refBank {
				ref[i] = &refMember{f: f}
			}

			rng := rand.New(rand.NewSource(44))
			v := 0.5
			for step := 0; step < 3000; step++ {
				switch {
				case rng.Float64() < 0.01:
					v = rng.Float64() // occasional level shift
				case step%7 == 0:
					// flat stretches provoke exact score ties
				default:
					v += 0.02 * (rng.Float64() - 0.5)
				}
				e.Update(v)

				best := -1
				bestScore := math.Inf(1)
				for i, m := range ref {
					if m.hasPending {
						d := m.pending - v
						m.errAbs = append(m.errAbs, math.Abs(d))
						m.errSq = append(m.errSq, d*d)
					}
					m.f.Update(v)
					m.pending, m.hasPending = m.f.Forecast()
					if !m.hasPending {
						continue
					}
					if s := m.score(tc.by, tc.window); best == -1 || s < bestScore {
						best, bestScore = i, s
					}
				}
				want := ""
				if best >= 0 {
					want = ref[best].f.Name()
				}
				if got := bestMethod(e); got != want {
					t.Fatalf("step %d: engine selected %q, brute force selected %q", step, got, want)
				}
			}
		})
	}
}
