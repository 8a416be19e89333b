package forecast

import (
	"fmt"
	"math"

	"nwscpu/internal/series"
)

// history is the arrival-order record that the window members of one bank
// read: a ring of the last len(buf) values, and one sorted window per
// order-statistics length. The ring holds one value more than the longest
// window, so the value a window evicts at a step is still held after that
// step's push.
//
// The history counts the values pushed into it, and each member counts its
// own updates: the first member to reach step k pushes the k-th value, and
// the rest of the bank, fed the same value at the same step, reads the
// history as it is. A member built alone owns a history of its own.
type history struct {
	buf  []float64 // ring of the last len(buf) values
	head int       // slot of the newest value
	n    int       // values pushed
	wins []series.OrderWindow
}

// check panics unless a window of w values fits h: the ring must still
// hold the value such a window evicts after the push that evicts it.
func (h *history) check(w int) {
	if w < 1 || w >= len(h.buf) {
		panic(fmt.Sprintf("forecast: a window of %d values over a history of %d", w, len(h.buf)))
	}
}

// window returns the history's sorted window of length w.
func (h *history) window(w int) *series.OrderWindow {
	h.check(w)
	for i := range h.wins {
		if cap(h.wins[i]) == w {
			return &h.wins[i]
		}
	}
	panic(fmt.Sprintf("forecast: history keeps no sorted window of length %d", w))
}

// push brings the history to step, the caller's own update count after v.
// It panics if the caller has fallen behind the history: another member was
// fed a value this one was not, so the history no longer matches its count.
func (h *history) push(step int, v float64) {
	switch step {
	case h.n + 1:
	case h.n: // another member pushed v at this step
		return
	default:
		panic("forecast: shared history fed out of lockstep")
	}
	if h.head++; h.head == len(h.buf) {
		h.head = 0
	}
	h.buf[h.head] = v
	h.n = step
	for i := range h.wins {
		w := &h.wins[i]
		var old float64
		if step > cap(*w) {
			old = h.back(cap(*w))
		}
		w.Push(v, old)
	}
}

// back returns the value pushed k steps before the newest; k must be below
// both the values pushed and the ring's size.
func (h *history) back(k int) float64 {
	i := h.head - k
	if i < 0 {
		i += len(h.buf)
	}
	return h.buf[i]
}

// tail returns the newest k values, oldest first, as the one or two spans
// of the ring that hold them; k must not exceed the values held.
func (h *history) tail(k int) (a, b []float64) {
	if start := h.head + 1 - k; start >= 0 {
		return h.buf[start : h.head+1], nil
	}
	return h.buf[h.head+1-k+len(h.buf):], h.buf[:h.head+1]
}

// mean returns the Kahan-compensated mean of the newest k values in arrival
// order: stats.Mean over a copy of them, bit for bit.
func (h *history) mean(k int) float64 {
	a, b := h.tail(k)
	var sum, c float64
	for _, span := range [2][]float64{a, b} {
		for _, x := range span {
			y := x - c
			t := sum + y
			c = (t - sum) - y
			sum = t
		}
	}
	return sum / float64(k)
}

// SlidingMean predicts the mean of the last w measurements. The running sum
// is maintained incrementally so Update and Forecast are O(1); to keep a
// long-running daemon's sum from accumulating floating-point drift, it is
// resynchronized from the window every w evictions (amortized O(1)).
type SlidingMean struct {
	name   string
	w      int
	n      int // updates seen
	sum    float64
	evicts int // evictions since the last resynchronization
	hist   *history
}

// slidingMean returns a mean over the last w values of h. It panics unless
// 1 <= w < the values h keeps.
func slidingMean(name string, h *history, w int) SlidingMean {
	h.check(w)
	return SlidingMean{name: name, w: w, hist: h}
}

// Name implements Forecaster.
func (f *SlidingMean) Name() string { return f.name }

// Update implements Forecaster.
func (f *SlidingMean) Update(v float64) {
	f.n++
	f.hist.push(f.n, v)
	if f.n > f.w {
		f.sum -= f.hist.back(f.w)
		f.evicts++
	}
	f.sum += v
	if f.evicts >= f.w {
		// Add/subtract rounding errors compound without bound on an
		// unbounded series; a fresh sum every w evictions pins the drift
		// at one window's worth of roundoff.
		f.evicts, f.sum = 0, 0
		a, b := f.hist.tail(f.w)
		for _, span := range [2][]float64{a, b} {
			for _, x := range span {
				f.sum += x
			}
		}
	}
}

// Forecast implements Forecaster.
func (f *SlidingMean) Forecast() (float64, bool) {
	n := min(f.n, f.w)
	if n == 0 {
		return 0, false
	}
	return f.sum / float64(n), true
}

// SlidingMedian predicts the median of the last w measurements. The window
// is kept sorted incrementally, so Update is one short memmove and Forecast
// an O(1) read, with zero steady-state allocations (the seed implementation
// copied and sorted the window on every forecast).
type SlidingMedian struct {
	name string
	n    int // updates seen
	win  *series.OrderWindow
	hist *history
}

// slidingMedian returns a median over h's sorted window of length w.
func slidingMedian(name string, h *history, w int) SlidingMedian {
	return SlidingMedian{name: name, win: h.window(w), hist: h}
}

// Name implements Forecaster.
func (f *SlidingMedian) Name() string { return f.name }

// Update implements Forecaster.
func (f *SlidingMedian) Update(v float64) {
	f.n++
	f.hist.push(f.n, v)
}

// Forecast implements Forecaster.
func (f *SlidingMedian) Forecast() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.win.Median(), true
}

// TrimmedMean predicts the alpha-trimmed mean of the last w measurements:
// the lowest and highest trim fraction of the sorted window are discarded
// before averaging. This is the NWS "trimmed" family, robust to the spikes a
// briefly scheduled interactive job injects into an availability series.
// The sorted window serves the trimmed span without sorting or allocating,
// bit-compatible with the seed's stats.TrimmedMean over a copied window.
type TrimmedMean struct {
	name string
	trim float64
	n    int // updates seen
	win  *series.OrderWindow
	hist *history
}

// trimmedMean returns an alpha-trimmed mean over h's sorted window of
// length w. It panics if trim is outside [0, 0.5).
func trimmedMean(name string, h *history, w int, trim float64) TrimmedMean {
	if trim < 0 || trim >= 0.5 {
		panic("forecast: TrimmedMean trim must be in [0,0.5)")
	}
	return TrimmedMean{name: name, trim: trim, win: h.window(w), hist: h}
}

// Name implements Forecaster.
func (f *TrimmedMean) Name() string { return f.name }

// Update implements Forecaster.
func (f *TrimmedMean) Update(v float64) {
	f.n++
	f.hist.push(f.n, v)
}

// Forecast implements Forecaster.
func (f *TrimmedMean) Forecast() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	if f.trim == 0 {
		// stats.TrimmedMean averages the untrimmed sample in arrival order.
		return f.hist.mean(len(*f.win)), true
	}
	return f.win.TrimmedMean(f.trim), true
}

// AdaptiveWindow predicts the mean (or median) of a window whose length
// adapts to the series: after each measurement it scores every candidate
// window length against the value just seen and uses the cumulatively best
// length for the next forecast. This mirrors the NWS adaptive-window
// predictors.
//
// The median variant reads one sorted window per candidate length, so each
// candidate's prediction is an O(1) read instead of a copy-and-sort of the
// tail; the mean variant sums the tail of the history in place. Each
// candidate's prediction is computed once per measurement, right after the
// push: Forecast reads the best one and the next Update scores them all.
// Neither variant allocates after construction.
type AdaptiveWindow struct {
	name  string
	n     int // updates seen
	cands []candidate
	hist  *history
}

// candidate is one window length an AdaptiveWindow chooses among.
type candidate struct {
	length int
	err    float64             // cumulative absolute error
	pred   float64             // prediction for the next value
	win    *series.OrderWindow // median variant: the sorted window of length
}

// adaptiveWindow returns an adaptive window over h choosing among cands,
// whose lengths the caller sets: the median variant when median is true,
// else the mean. It panics if cands is empty or a length is not in
// [1, the values h keeps).
func adaptiveWindow(name string, h *history, cands []candidate, median bool) AdaptiveWindow {
	if len(cands) == 0 {
		panic("forecast: AdaptiveWindow needs at least one length")
	}
	for i := range cands {
		h.check(cands[i].length)
		if median {
			cands[i].win = h.window(cands[i].length)
		}
	}
	return AdaptiveWindow{name: name, cands: cands, hist: h}
}

// Name implements Forecaster.
func (f *AdaptiveWindow) Name() string { return f.name }

// Update implements Forecaster.
func (f *AdaptiveWindow) Update(v float64) {
	// Absorb the value into the history, then score each candidate
	// length's forecast against it and predict the next value.
	f.n++
	f.hist.push(f.n, v)
	for i := range f.cands {
		c := &f.cands[i]
		if f.n > 1 {
			c.err += math.Abs(c.pred - v)
		}
		if c.win != nil {
			c.pred = c.win.Median()
		} else {
			c.pred = f.hist.mean(min(f.n, c.length))
		}
	}
}

// Forecast implements Forecaster.
func (f *AdaptiveWindow) Forecast() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.cands[f.bestIdx()].pred, true
}

func (f *AdaptiveWindow) bestIdx() int {
	best := 0
	for i := range f.cands {
		if f.cands[i].err < f.cands[best].err {
			best = i
		}
	}
	return best
}
