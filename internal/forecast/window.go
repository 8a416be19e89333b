package forecast

import (
	"fmt"

	"nwscpu/internal/series"
)

// SlidingMean predicts the mean of the last w measurements. The running sum
// is maintained incrementally so Update and Forecast are O(1); to keep a
// long-running daemon's sum from accumulating floating-point drift, it is
// resynchronized from the ring contents every Cap evictions (amortized O(1)).
type SlidingMean struct {
	name   string
	ring   *series.Ring
	sum    float64
	evicts int // evictions since the last resynchronization
}

// NewSlidingMean returns a sliding-window mean over windows of w values.
// It panics if w < 1.
func NewSlidingMean(w int) *SlidingMean {
	return &SlidingMean{name: fmt.Sprintf("sw_mean_%d", w), ring: series.NewRing(w)}
}

// Name implements Forecaster.
func (f *SlidingMean) Name() string { return f.name }

// Update implements Forecaster.
func (f *SlidingMean) Update(v float64) {
	if f.ring.Full() {
		f.sum -= f.ring.At(0)
		f.evicts++
	}
	f.ring.Push(v)
	f.sum += v
	if f.evicts >= f.ring.Cap() {
		// Add/subtract rounding errors compound without bound on an
		// unbounded series; a fresh sum every Cap evictions pins the drift
		// at one window's worth of roundoff.
		f.evicts = 0
		var sum float64
		for i := 0; i < f.ring.Len(); i++ {
			sum += f.ring.At(i)
		}
		f.sum = sum
	}
}

// Forecast implements Forecaster.
func (f *SlidingMean) Forecast() (float64, bool) {
	n := f.ring.Len()
	if n == 0 {
		return 0, false
	}
	return f.sum / float64(n), true
}

// SlidingMedian predicts the median of the last w measurements. The window
// is an incremental order-statistics structure, so Update is one short
// memmove and Forecast an O(1) read, with zero steady-state allocations (the
// seed implementation copied and sorted the window on every forecast).
type SlidingMedian struct {
	name string
	win  *series.OrderWindow
}

// NewSlidingMedian returns a sliding-window median over windows of w values.
// It panics if w < 1.
func NewSlidingMedian(w int) *SlidingMedian {
	return &SlidingMedian{name: fmt.Sprintf("sw_median_%d", w), win: series.NewOrderWindow(w)}
}

// Name implements Forecaster.
func (f *SlidingMedian) Name() string { return f.name }

// Update implements Forecaster.
func (f *SlidingMedian) Update(v float64) { f.win.Push(v) }

// Forecast implements Forecaster.
func (f *SlidingMedian) Forecast() (float64, bool) {
	if f.win.Len() == 0 {
		return 0, false
	}
	return f.win.Median(), true
}

// TrimmedMean predicts the alpha-trimmed mean of the last w measurements:
// the lowest and highest trim fraction of the sorted window are discarded
// before averaging. This is the NWS "trimmed" family, robust to the spikes a
// briefly scheduled interactive job injects into an availability series.
// The order-statistics window serves the trimmed span without sorting or
// allocating; OrderWindow.TrimmedMean is bit-compatible with the seed's
// stats.TrimmedMean over a copied window.
type TrimmedMean struct {
	name string
	trim float64
	win  *series.OrderWindow
}

// NewTrimmedMean returns an alpha-trimmed sliding mean. It panics if w < 1
// or trim is outside [0, 0.5).
func NewTrimmedMean(w int, trim float64) *TrimmedMean {
	if trim < 0 || trim >= 0.5 {
		panic("forecast: TrimmedMean trim must be in [0,0.5)")
	}
	return &TrimmedMean{
		name: fmt.Sprintf("sw_trim_%d_%02.0f", w, trim*100),
		trim: trim,
		win:  series.NewOrderWindow(w),
	}
}

// Name implements Forecaster.
func (f *TrimmedMean) Name() string { return f.name }

// Update implements Forecaster.
func (f *TrimmedMean) Update(v float64) { f.win.Push(v) }

// Forecast implements Forecaster.
func (f *TrimmedMean) Forecast() (float64, bool) {
	if f.win.Len() == 0 {
		return 0, false
	}
	return f.win.TrimmedMean(f.trim), true
}

// AdaptiveWindow predicts the mean (or median) of a window whose length
// adapts to the series: after each measurement it scores every candidate
// window length against the value just seen and uses the cumulatively best
// length for the next forecast. This mirrors the NWS adaptive-window
// predictors.
//
// The median variant keeps one order-statistics window per candidate length,
// so each candidate's prediction is an O(1) read instead of a copy-and-sort
// of the tail; the mean variant sums the ring tail in place. Each
// candidate's prediction is computed once per measurement, right after the
// push: Forecast reads the best one and the next Update scores them all.
// Neither variant allocates after construction.
type AdaptiveWindow struct {
	name      string
	useMedian bool
	lengths   []int
	errs      []float64 // cumulative absolute error per candidate length
	preds     []float64 // each candidate's prediction for the next value
	ring      *series.Ring
	wins      []*series.OrderWindow // median variant: one per candidate length
}

// NewAdaptiveWindowMean returns an adaptive-window mean predictor choosing
// among the given window lengths. It panics if lengths is empty or contains
// a non-positive length.
func NewAdaptiveWindowMean(lengths ...int) *AdaptiveWindow {
	return newAdaptiveWindow("adapt_mean", false, lengths)
}

// NewAdaptiveWindowMedian returns an adaptive-window median predictor.
func NewAdaptiveWindowMedian(lengths ...int) *AdaptiveWindow {
	return newAdaptiveWindow("adapt_median", true, lengths)
}

func newAdaptiveWindow(name string, useMedian bool, lengths []int) *AdaptiveWindow {
	if len(lengths) == 0 {
		panic("forecast: AdaptiveWindow needs at least one length")
	}
	maxLen := 0
	for _, l := range lengths {
		if l < 1 {
			panic("forecast: AdaptiveWindow lengths must be positive")
		}
		if l > maxLen {
			maxLen = l
		}
	}
	f := &AdaptiveWindow{
		name:      name,
		useMedian: useMedian,
		lengths:   append([]int(nil), lengths...),
		errs:      make([]float64, len(lengths)),
		preds:     make([]float64, len(lengths)),
		ring:      series.NewRing(maxLen),
	}
	if useMedian {
		f.wins = make([]*series.OrderWindow, len(lengths))
		for i, l := range f.lengths {
			f.wins[i] = series.NewOrderWindow(l)
		}
	}
	return f
}

// Name implements Forecaster.
func (f *AdaptiveWindow) Name() string { return f.name }

// Update implements Forecaster.
func (f *AdaptiveWindow) Update(v float64) {
	// Score each candidate length's forecast against the arriving value,
	// absorb the value into the window(s), then predict the next one.
	if f.ring.Len() > 0 {
		for i, p := range f.preds {
			d := p - v
			if d < 0 {
				d = -d
			}
			f.errs[i] += d
		}
	}
	f.ring.Push(v)
	for _, w := range f.wins {
		w.Push(v)
	}
	for i := range f.preds {
		f.preds[i] = f.predictCandidate(i)
	}
}

// Forecast implements Forecaster.
func (f *AdaptiveWindow) Forecast() (float64, bool) {
	if f.ring.Len() == 0 {
		return 0, false
	}
	return f.preds[f.bestIdx()], true
}

// BestLength returns the currently selected window length (for diagnostics
// and ablation reporting).
func (f *AdaptiveWindow) BestLength() int { return f.lengths[f.bestIdx()] }

func (f *AdaptiveWindow) bestIdx() int {
	best := 0
	for i := range f.lengths {
		if f.errs[i] < f.errs[best] {
			best = i
		}
	}
	return best
}

// predictCandidate forecasts with candidate window i: the median of its
// order window, or the mean of the last lengths[i] ring values (Kahan
// compensated, matching stats.Mean over the copied tail bit for bit).
func (f *AdaptiveWindow) predictCandidate(i int) float64 {
	if f.useMedian {
		return f.wins[i].Median()
	}
	n := f.ring.Len()
	k := f.lengths[i]
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	var sum, c float64
	for j := n - k; j < n; j++ {
		y := f.ring.At(j) - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum / float64(k)
}
