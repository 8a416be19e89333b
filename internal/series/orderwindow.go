package series

import "nwscpu/internal/stats"

// OrderWindow keeps the values of a sliding window over a scalar series in
// ascending order: Push is one or two binary searches plus one memmove,
// Median an O(1) read, and the alpha-trimmed mean O(trimmed span), all
// without allocating. It replaces the copy-and-sort pattern (O(w log w) and
// one allocation per query) in the forecaster hot path. At the lengths the
// forecasters use, shifting a contiguous slice costs less than walking a
// balanced tree: docs/PERFORMANCE.md has the measurements.
//
// An OrderWindow is a slice of the values it holds, and its capacity is the
// window's length: make one with make(OrderWindow, 0, length), or over a
// buffer the caller owns. It does not record arrival order. The caller
// does, and hands Push the value that the window evicts, so that several
// windows over one series can share one record of it.
//
// Median and TrimmedMean are bit-compatible with stats.Median and
// stats.TrimmedMean applied to the window's contents: they select the same
// order statistics and combine them with the same floating-point operations,
// so swapping a sorted-copy implementation for an OrderWindow changes no
// forecast bit. NaN values are not supported: they have no total order, and
// a window holding one panics in Push, at the latest when it evicts it.
// Availability series are finite by construction, and the memory server
// refuses non-finite points.
type OrderWindow []float64

// search returns the index of the first value in the ascending s that is >= v.
// The loop body is a conditional move rather than a branch: on noisy series
// the comparison is a coin flip the branch predictor would lose.
func search(s []float64, v float64) int {
	base, n := 0, len(s)
	for n > 1 {
		half := n / 2
		if s[base+half] < v {
			base += half
		}
		n -= half
	}
	if n > 0 && s[base] < v {
		base++
	}
	return base
}

// Push adds v. Once the window is full it also evicts old, which must be the
// value pushed cap(w) pushes before v; until then old is ignored. v takes
// over a free slot — the evicted value's, or a new one past the end — and
// only the values between that slot and v's sorted position shift, by one.
// Any copy of a duplicate is as good as another, so eviction stays exact.
// Push panics if a full window does not hold old.
func (w *OrderWindow) Push(v, old float64) {
	s := *w
	i := len(s) // the free slot
	if i == cap(s) {
		if i = search(s, old); i == len(s) || s[i] != old {
			panic("series: OrderWindow evicting a value it does not hold")
		}
	} else {
		*w = s[:i+1]
	}
	j := search(s, v)
	if j > i {
		j-- // v's position once the evicted value is gone
		copy(s[i:j], s[i+1:j+1])
	} else {
		copy(s[j+1:i+1], s[j:i])
	}
	(*w)[j] = v
}

// Median returns the median of the stored values, or 0 when empty
// (matching stats.Median).
func (w OrderWindow) Median() float64 {
	n := len(w)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return w[n/2]
	}
	return (w[n/2-1] + w[n/2]) / 2
}

// TrimmedMean returns the mean of the stored values after discarding the
// lowest and highest frac fraction, matching stats.TrimmedMean bit for bit:
// the surviving order statistics are Kahan-summed in ascending order by
// stats.Mean, exactly as stats.TrimmedMean sums its sorted copy. At frac <= 0
// stats.TrimmedMean averages the values in arrival order, which the window
// does not keep, so TrimmedMean panics.
func (w OrderWindow) TrimmedMean(frac float64) float64 {
	if frac <= 0 {
		panic("series: OrderWindow.TrimmedMean needs frac > 0")
	}
	n := len(w)
	k := int(float64(n) * frac)
	if frac >= 0.5 || 2*k >= n {
		return w.Median()
	}
	return stats.Mean(w[k : n-k])
}
