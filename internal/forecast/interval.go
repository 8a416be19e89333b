package forecast

import "nwscpu/internal/series"

// intervalWindow is how many recent engine-level one-step errors back the
// empirical prediction intervals. Update pushes each one into a ring in
// O(1); ForecastInterval sorts the window on each call.
const intervalWindow = 200

// Interval is a prediction with an empirical uncertainty band.
type Interval struct {
	Prediction
	Lo, Hi float64 // bounds of the requested-coverage interval
	N      int     // number of residuals behind the band
}

// recordOwnError is called from Update with the arriving value to score the
// engine's own previously forwarded forecast (the selected member's), which
// is what the intervals must calibrate against — not any single member.
func (e *Engine) recordOwnError(v float64) {
	if e.ownPending {
		if e.ownErrs == nil {
			e.ownErrs = series.NewRing(intervalWindow)
		}
		e.ownErrs.Push(v - e.ownForecast)
	}
}

// noteOwnForecast stores the forecast the engine would forward right now so
// the next Update can score it, and records the selection for the dynamics
// report. Update has just refreshed the cached best index, so this is an
// O(1) read rather than a full re-selection.
func (e *Engine) noteOwnForecast() {
	if e.best < 0 {
		return
	}
	t := e.trackers[e.best]
	e.ownForecast = t.pending
	e.ownPending = true
	e.selections[e.best]++
}

// ForecastInterval returns the engine's forecast together with an empirical
// central interval of the given coverage (e.g. 0.9 for a 90% band), built
// from the engine's recent one-step-ahead residuals. ok is false until the
// engine has a forecast; before any residuals exist the band collapses to
// the point forecast. Coverage outside (0, 1) is clamped to 0.9.
//
// Update keeps the residuals in arrival order only, so each call inserts
// them, one binary search and one short memmove each, into a scratch
// order-statistics window and reads the two type-7 quantiles there. The
// scratch window is made on the first call and kept, so later calls
// allocate nothing.
func (e *Engine) ForecastInterval(coverage float64) (Interval, bool) {
	p, ok := e.forecast()
	if !ok {
		return Interval{}, false
	}
	if coverage <= 0 || coverage >= 1 {
		coverage = 0.9
	}
	iv := Interval{Prediction: p, Lo: p.Value, Hi: p.Value}
	if e.ownErrs == nil || e.ownErrs.Len() == 0 {
		return iv, true
	}
	if e.ownSorted == nil {
		e.ownSorted = series.NewOrderWindow(intervalWindow)
	}
	sorted := e.ownSorted
	sorted.Reset()
	for i := 0; i < e.ownErrs.Len(); i++ {
		sorted.Push(e.ownErrs.At(i))
	}
	alpha := (1 - coverage) / 2
	iv.Lo = p.Value + sorted.Quantile(alpha)
	iv.Hi = p.Value + sorted.Quantile(1-alpha)
	iv.N = sorted.Len()
	return iv, true
}
