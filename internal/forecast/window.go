package forecast

import (
	"fmt"

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
// length w. It panics if trim is outside (0, 0.5).
func trimmedMean(name string, h *history, w int, trim float64) TrimmedMean {
	if trim <= 0 || trim >= 0.5 {
		panic("forecast: TrimmedMean trim must be in (0,0.5)")
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
	return f.win.TrimmedMean(f.trim), true
}
