package series

import "sort"

// PointRing is a fixed-capacity ring buffer of timestamped Points ordered by
// time — the storage behind the memory server's circular per-series files.
// Once full, each Push overwrites the oldest point in place, so steady-state
// eviction is O(1) instead of the O(capacity) slice copy a plain Series
// needs. The backing array grows geometrically up to the capacity bound, so
// short series stay small.
//
// PointRing does not enforce time ordering; callers must push points with
// non-decreasing timestamps (the memory server skips out-of-order points
// before pushing). SearchT relies on that ordering for binary search.
//
// The zero value is not usable; create PointRings with NewPointRing.
type PointRing struct {
	bound int     // capacity bound
	buf   []Point // len(buf) <= bound; grows geometrically until bound
	start int     // index of the oldest point
	n     int     // number of stored points
}

// pointRingMinAlloc is the smallest backing array allocated on first push.
const pointRingMinAlloc = 64

// NewPointRing returns a ring holding at most capacity points. It panics if
// capacity < 1.
func NewPointRing(capacity int) *PointRing {
	if capacity < 1 {
		panic("series: NewPointRing capacity must be >= 1")
	}
	return &PointRing{bound: capacity}
}

// Len returns the number of stored points.
func (r *PointRing) Len() int { return r.n }

// Push appends p, evicting the oldest point when the ring is at capacity.
// It reports whether an eviction happened.
func (r *PointRing) Push(p Point) (evicted bool) {
	if r.n == len(r.buf) && r.n < r.bound {
		r.grow()
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = p
		r.n++
		return false
	}
	r.buf[r.start] = p
	r.start = (r.start + 1) % len(r.buf)
	return true
}

// grow enlarges the backing array geometrically (bounded by the capacity),
// linearizing the stored points so index arithmetic stays simple.
func (r *PointRing) grow() {
	size := 2 * len(r.buf)
	if size < pointRingMinAlloc {
		size = pointRingMinAlloc
	}
	if size > r.bound {
		size = r.bound
	}
	buf := make([]Point, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.start = buf, 0
}

// at returns the i-th stored point without bounds checking.
func (r *PointRing) at(i int) Point { return r.buf[(r.start+i)%len(r.buf)] }

// At returns the i-th stored point in time order (0 = oldest). It panics if
// i is out of range.
func (r *PointRing) At(i int) Point {
	if i < 0 || i >= r.n {
		panic("series: PointRing.At out of range")
	}
	return r.at(i)
}

// Last returns the most recently pushed point. ok is false when empty.
func (r *PointRing) Last() (p Point, ok bool) {
	if r.n == 0 {
		return Point{}, false
	}
	return r.at(r.n - 1), true
}

// SearchT returns the smallest index whose point has T >= t (Len when no
// such point exists) — the ring analogue of sort.Search over timestamps.
func (r *PointRing) SearchT(t float64) int {
	return sort.Search(r.n, func(i int) bool { return r.at(i).T >= t })
}

// Reset empties the ring without releasing its storage.
func (r *PointRing) Reset() { r.start, r.n = 0, 0 }
