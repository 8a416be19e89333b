package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// are counted in the first or last bin respectively.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
// It panics if nbins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		panic("stats: NewHistogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: NewHistogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// String renders a compact ASCII bar chart, one bin per line, scaled so that
// the fullest bin is width columns wide.
func (h *Histogram) String() string {
	const width = 50
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%8.3f |%-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
