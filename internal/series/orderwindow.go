package series

import "math"

// OrderWindow is a sliding window over a scalar series that serves order
// statistics incrementally: Push is one binary search plus one memmove of at
// most w values, Median/Kth/Quantile are O(1) index reads, and the
// alpha-trimmed mean is O(trimmed span) — all with zero steady-state
// allocations. It replaces the copy-and-sort pattern (O(w log w) time and one
// allocation per query) in the forecaster hot path.
//
// Internally it pairs an arrival-order Ring (which value to evict next) with
// a sorted copy of the same values. Both are preallocated at capacity, so a
// window at steady state never touches the allocator. At the window lengths
// the forecasters use (w ≤ 200) shifting a contiguous slice costs less than
// walking a balanced tree: docs/PERFORMANCE.md has the measurements.
//
// Median, Quantile and TrimmedMean are bit-compatible with stats.Median,
// stats.Quantile and stats.TrimmedMean applied to the window's contents:
// they select the same order statistics and combine them with the same
// floating-point operations (including Kahan summation over ascending order
// for the trimmed mean), so swapping a sorted-copy implementation for an
// OrderWindow changes no forecast bit. NaN values are not supported: they
// have no total order, and a window holding one panics in Push, at the
// latest when it evicts it. Availability series are finite by construction,
// and the memory server refuses non-finite points.
//
// The zero value is not usable; create OrderWindows with NewOrderWindow.
type OrderWindow struct {
	ring   *Ring     // arrival order: oldest value = next eviction
	sorted []float64 // the same values in ascending order
}

// NewOrderWindow returns a window holding at most capacity values.
// It panics if capacity < 1.
func NewOrderWindow(capacity int) *OrderWindow {
	if capacity < 1 {
		panic("series: NewOrderWindow capacity must be >= 1")
	}
	return &OrderWindow{ring: NewRing(capacity), sorted: make([]float64, 0, capacity)}
}

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

// Push appends v, evicting the oldest value if the window is full. v takes
// over a free slot — the evicted value's, or a new one past the end — and
// only the values between that slot and v's sorted position shift, by one.
func (w *OrderWindow) Push(v float64) {
	s := w.sorted
	i := len(s) // the free slot
	if w.ring.Full() {
		old := w.ring.At(0)
		if i = search(s, old); i == len(s) || s[i] != old {
			panic("series: OrderWindow evicting a value it does not hold")
		}
	} else {
		w.sorted = s[:i+1]
	}
	w.ring.Push(v)
	j := search(s, v)
	if j > i {
		j-- // v's position once the evicted value is gone
		copy(s[i:j], s[i+1:j+1])
	} else {
		copy(s[j+1:i+1], s[j:i])
	}
	w.sorted[j] = v
}

// Len returns the number of stored values.
func (w *OrderWindow) Len() int { return w.ring.Len() }

// Cap returns the window's capacity.
func (w *OrderWindow) Cap() int { return w.ring.Cap() }

// Full reports whether the window has reached capacity.
func (w *OrderWindow) Full() bool { return w.ring.Full() }

// At returns the i-th stored value in arrival order (0 = oldest).
func (w *OrderWindow) At(i int) float64 { return w.ring.At(i) }

// Kth returns the i-th smallest stored value (0-based). It panics if i is
// out of range.
func (w *OrderWindow) Kth(i int) float64 {
	if i < 0 || i >= len(w.sorted) {
		panic("series: OrderWindow.Kth out of range")
	}
	return w.sorted[i]
}

// Median returns the median of the stored values, or 0 when empty
// (matching stats.Median).
func (w *OrderWindow) Median() float64 {
	s := w.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile of the stored values using linear
// interpolation between order statistics (type-7, matching stats.Quantile).
// It returns 0 when empty and clamps q into [0,1].
func (w *OrderWindow) Quantile(q float64) float64 {
	s := w.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TrimmedMean returns the mean of the stored values after discarding the
// lowest and highest frac fraction of the sorted window, matching
// stats.TrimmedMean bit for bit: the surviving order statistics are summed
// with Kahan compensation in ascending order, exactly as stats.Mean does
// over a sorted copy.
func (w *OrderWindow) TrimmedMean(frac float64) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	if frac <= 0 {
		// stats.TrimmedMean averages the unsorted sample: arrival order.
		var acc kahanSum
		for i := 0; i < n; i++ {
			acc.add(w.ring.At(i))
		}
		return acc.sum / float64(n)
	}
	if frac >= 0.5 {
		return w.Median()
	}
	k := int(float64(n) * frac)
	if 2*k >= n {
		return w.Median()
	}
	var acc kahanSum
	for _, x := range w.sorted[k : n-k] {
		acc.add(x)
	}
	return acc.sum / float64(n-2*k)
}

// kahanSum replicates the compensated loop of stats.Sum.
type kahanSum struct{ sum, c float64 }

func (k *kahanSum) add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Reset empties the window without releasing its storage.
func (w *OrderWindow) Reset() {
	w.ring.Reset()
	w.sorted = w.sorted[:0]
}
