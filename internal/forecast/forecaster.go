// Package forecast implements the Network Weather Service forecasting
// methodology of Wolski (Cluster Computing 1998) as used in the HPDC 1999
// CPU-availability study: a bank of computationally inexpensive one-step-
// ahead predictors — mean-based, median-based and exponential-smoothing
// based, each over several window sizes — plus the dynamic selector that, at
// every step, forwards the prediction of whichever bank member has been most
// accurate over the measurements seen so far.
//
// All forecasters share the same contract: Update feeds the next measurement
// of the series; Forecast returns the prediction for the measurement that
// will follow. A forecaster reports ok == false until it has enough history
// to predict (generally a single value).
package forecast

// Forecaster is a one-step-ahead predictor over a scalar time series.
type Forecaster interface {
	// Name identifies the method (e.g. "sw_mean_20") in reports.
	Name() string
	// Update appends the next measurement of the series.
	Update(v float64)
	// Forecast predicts the next measurement. ok is false until the
	// forecaster has seen enough history.
	Forecast() (v float64, ok bool)
}

// LastValue predicts that the next measurement equals the current one.
type LastValue struct {
	last float64
	seen bool
}

// NewLastValue returns the last-value predictor.
func NewLastValue() *LastValue { return &LastValue{} }

// Name implements Forecaster.
func (f *LastValue) Name() string { return "last_value" }

// Update implements Forecaster.
func (f *LastValue) Update(v float64) { f.last, f.seen = v, true }

// Forecast implements Forecaster.
func (f *LastValue) Forecast() (float64, bool) { return f.last, f.seen }

// RunningMean predicts the mean of the entire history.
type RunningMean struct {
	sum float64
	n   int
}

// NewRunningMean returns the running (cumulative) mean predictor.
func NewRunningMean() *RunningMean { return &RunningMean{} }

// Name implements Forecaster.
func (f *RunningMean) Name() string { return "run_mean" }

// Update implements Forecaster.
func (f *RunningMean) Update(v float64) { f.sum += v; f.n++ }

// Forecast implements Forecaster.
func (f *RunningMean) Forecast() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sum / float64(f.n), true
}

// ExpSmooth predicts with simple exponential smoothing,
// s <- s + gain*(v - s).
type ExpSmooth struct {
	name  string
	gain  float64
	state float64
	seen  bool
}

// NewExpSmooth returns an exponential-smoothing predictor with the given
// gain in (0, 1]. It panics on an out-of-range gain.
func NewExpSmooth(name string, gain float64) *ExpSmooth {
	if gain <= 0 || gain > 1 {
		panic("forecast: ExpSmooth gain must be in (0,1]")
	}
	return &ExpSmooth{name: name, gain: gain}
}

// Name implements Forecaster.
func (f *ExpSmooth) Name() string { return f.name }

// Update implements Forecaster.
func (f *ExpSmooth) Update(v float64) {
	if !f.seen {
		f.state, f.seen = v, true
		return
	}
	f.state += f.gain * (v - f.state)
}

// Forecast implements Forecaster.
func (f *ExpSmooth) Forecast() (float64, bool) { return f.state, f.seen }

// TriggLeach is exponential smoothing whose gain adapts by the Trigg-Leach
// tracking signal: gain = |smoothed error| / |smoothed absolute error|. It
// reacts quickly to level shifts while smoothing stationary noise.
type TriggLeach struct {
	phi   float64 // smoothing constant for the tracking signal
	state float64
	e     float64 // smoothed signed error
	ae    float64 // smoothed absolute error
	seen  bool
}

// NewTriggLeach returns the adaptive-gain smoother. phi is the smoothing
// constant of the tracking signal (0.1–0.3 typical); it panics if phi is not
// in (0, 1].
func NewTriggLeach(phi float64) *TriggLeach {
	if phi <= 0 || phi > 1 {
		panic("forecast: TriggLeach phi must be in (0,1]")
	}
	return &TriggLeach{phi: phi}
}

// Name implements Forecaster.
func (f *TriggLeach) Name() string { return "adapt_exp" }

// Update implements Forecaster.
func (f *TriggLeach) Update(v float64) {
	if !f.seen {
		f.state, f.seen = v, true
		return
	}
	err := v - f.state
	f.e += f.phi * (err - f.e)
	abs := err
	if abs < 0 {
		abs = -abs
	}
	f.ae += f.phi * (abs - f.ae)
	// When the smoothed absolute error is zero (a perfectly flat stretch)
	// the tracking ratio would be 0/0; fall back to the documented 0.5 gain.
	gain := 0.5
	if f.ae > 0 {
		gain = f.e / f.ae
		if gain < 0 {
			gain = -gain
		}
		if gain > 1 {
			gain = 1
		}
	}
	f.state += gain * (v - f.state)
}

// Forecast implements Forecaster.
func (f *TriggLeach) Forecast() (float64, bool) { return f.state, f.seen }

// Holt is double exponential smoothing (Holt's linear method): it smooths
// both the level and the trend of the series,
//
//	level <- alpha*v + (1-alpha)*(level + trend)
//	trend <- beta*(level - prevLevel) + (1-beta)*trend
//
// and forecasts level + trend. It tracks availability ramps (a machine
// gradually filling with work) better than simple smoothing.
type Holt struct {
	name         string
	alpha, beta  float64
	level, trend float64
	n            int
}

// NewHolt returns a Holt forecaster. Both gains must be in (0, 1].
func NewHolt(name string, alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic("forecast: Holt gains must be in (0,1]")
	}
	return &Holt{name: name, alpha: alpha, beta: beta}
}

// Name implements Forecaster.
func (f *Holt) Name() string { return f.name }

// Update implements Forecaster.
func (f *Holt) Update(v float64) {
	switch f.n {
	case 0:
		f.level = v
	case 1:
		f.trend = v - f.level
		f.level = v
	default:
		prev := f.level
		f.level = f.alpha*v + (1-f.alpha)*(f.level+f.trend)
		f.trend = f.beta*(f.level-prev) + (1-f.beta)*f.trend
	}
	f.n++
}

// Forecast implements Forecaster.
func (f *Holt) Forecast() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	if f.n == 1 {
		return f.level, true
	}
	return f.level + f.trend, true
}

// Trend predicts last + damping*(last - previous): a first-difference
// gradient predictor, damped to avoid overshooting on noisy series.
type Trend struct {
	damping    float64
	last, prev float64
	n          int
}

// NewTrend returns the damped gradient predictor. damping is typically in
// (0, 1]; it panics when damping is not positive.
func NewTrend(damping float64) *Trend {
	if damping <= 0 {
		panic("forecast: Trend damping must be positive")
	}
	return &Trend{damping: damping}
}

// Name implements Forecaster.
func (f *Trend) Name() string { return "trend" }

// Update implements Forecaster.
func (f *Trend) Update(v float64) {
	f.prev, f.last = f.last, v
	if f.n < 2 {
		f.n++
	}
}

// Forecast implements Forecaster.
func (f *Trend) Forecast() (float64, bool) {
	switch f.n {
	case 0:
		return 0, false
	case 1:
		return f.last, true
	default:
		return f.last + f.damping*(f.last-f.prev), true
	}
}

// compile-time interface checks
var (
	_ Forecaster = (*LastValue)(nil)
	_ Forecaster = (*RunningMean)(nil)
	_ Forecaster = (*ExpSmooth)(nil)
	_ Forecaster = (*TriggLeach)(nil)
	_ Forecaster = (*Trend)(nil)
	_ Forecaster = (*Holt)(nil)
	_ Forecaster = (*SlidingMean)(nil)
	_ Forecaster = (*SlidingMedian)(nil)
	_ Forecaster = (*TrimmedMean)(nil)
)
