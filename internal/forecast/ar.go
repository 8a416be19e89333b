package forecast

import (
	"fmt"

	"nwscpu/internal/series"
	"nwscpu/internal/stats"
)

// AR is an autoregressive one-step-ahead predictor: it periodically fits an
// AR(p) model to a sliding window of the series by solving the Yule–Walker
// equations with the Levinson–Durbin recursion (the classic DSP approach
// the paper's methodology section points to), and forecasts
//
//	x_{t+1} = mean + sum_i phi_i * (x_{t+1-i} - mean)
//
// Fitting is O(window + p^2) and happens every refitEvery updates, so the
// per-update cost stays within the NWS "computationally inexpensive"
// budget.
type AR struct {
	name       string
	order      int
	refitEvery int
	ring       *series.Ring
	scratch    []float64
	phi        []float64
	mean       float64
	sinceFit   int
	fitted     bool
}

// NewAR returns an AR(order) forecaster over a window of the given size,
// refitting every refitEvery updates. It panics if order < 1, window <
// 4*order, or refitEvery < 1.
func NewAR(order, window, refitEvery int) *AR {
	if order < 1 {
		panic("forecast: AR order must be >= 1")
	}
	if window < 4*order {
		panic("forecast: AR window must be at least 4*order")
	}
	if refitEvery < 1 {
		panic("forecast: AR refitEvery must be >= 1")
	}
	return &AR{
		name:       fmt.Sprintf("ar_%d", order),
		order:      order,
		refitEvery: refitEvery,
		ring:       series.NewRing(window),
		scratch:    make([]float64, 0, window),
	}
}

// Name implements Forecaster.
func (f *AR) Name() string { return f.name }

// Update implements Forecaster.
func (f *AR) Update(v float64) {
	f.ring.Push(v)
	f.sinceFit++
	if f.ring.Len() >= 2*f.order+2 && (f.sinceFit >= f.refitEvery || !f.fitted) {
		f.refit()
	}
}

func (f *AR) refit() {
	f.scratch = f.ring.Values(f.scratch)
	f.mean = stats.Mean(f.scratch)
	// Autocovariances gamma(0..p).
	r := make([]float64, f.order+1)
	for k := 0; k <= f.order; k++ {
		r[k] = stats.Autocovariance(f.scratch, k)
	}
	if r[0] <= 0 {
		// Constant window: predict the mean.
		f.phi = nil
		f.fitted = true
		f.sinceFit = 0
		return
	}
	f.phi = levinsonDurbin(r)
	f.fitted = true
	f.sinceFit = 0
}

// levinsonDurbin solves the Yule-Walker system for AR coefficients given
// autocovariances r[0..p]. It returns phi[0..p-1] where phi[i] multiplies
// the (i+1)-lagged value.
func levinsonDurbin(r []float64) []float64 {
	p := len(r) - 1
	a := make([]float64, p+1)
	tmp := make([]float64, p+1)
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= a[j] * r[k-j]
		}
		if e == 0 {
			break
		}
		kk := acc / e
		copy(tmp, a[:k])
		a[k] = kk
		for j := 1; j < k; j++ {
			a[j] = tmp[j] - kk*tmp[k-j]
		}
		e *= 1 - kk*kk
		if e < 0 {
			e = 0
		}
	}
	return a[1:]
}

// Forecast implements Forecaster.
func (f *AR) Forecast() (float64, bool) {
	n := f.ring.Len()
	if n == 0 {
		return 0, false
	}
	if !f.fitted || len(f.phi) == 0 {
		last, _ := f.ring.Last()
		if !f.fitted {
			return last, true
		}
		return f.mean, true
	}
	pred := f.mean
	for i, c := range f.phi {
		idx := n - 1 - i
		if idx < 0 {
			break
		}
		pred += c * (f.ring.At(idx) - f.mean)
	}
	return pred, true
}

// Seasonal predicts from the same phase of previous periods: with period P
// samples, the forecast for the next measurement is the mean of the values
// one period, two periods, ... back at the same phase. CPU availability has
// a strong daily cycle (the paper's traces visibly do), which none of the
// windowed methods can exploit.
type Seasonal struct {
	name    string
	period  int
	history *series.Ring
}

// NewSeasonal returns a seasonal predictor with the given period (in
// samples) remembering the given number of periods. It panics if period < 2
// or periods < 1.
func NewSeasonal(period, periods int) *Seasonal {
	if period < 2 {
		panic("forecast: Seasonal period must be >= 2")
	}
	if periods < 1 {
		panic("forecast: Seasonal must keep at least one period")
	}
	return &Seasonal{
		name:    fmt.Sprintf("seasonal_%d", period),
		period:  period,
		history: series.NewRing(period * periods),
	}
}

// Name implements Forecaster.
func (f *Seasonal) Name() string { return f.name }

// Update implements Forecaster.
func (f *Seasonal) Update(v float64) { f.history.Push(v) }

// Forecast implements Forecaster. Until a full period of history exists it
// falls back to the last value.
func (f *Seasonal) Forecast() (float64, bool) {
	n := f.history.Len()
	if n == 0 {
		return 0, false
	}
	if n < f.period {
		v, _ := f.history.Last()
		return v, true
	}
	// The next sample sits one period after index n-period, two after
	// n-2*period, etc.
	var sum float64
	var count int
	for idx := n - f.period; idx >= 0; idx -= f.period {
		sum += f.history.At(idx)
		count++
	}
	return sum / float64(count), true
}

var (
	_ Forecaster = (*AR)(nil)
	_ Forecaster = (*Seasonal)(nil)
)
