package series

import "sort"

// PointRing is a fixed-capacity ring buffer of timestamped points ordered by
// time — the storage behind the memory server's circular per-series files.
// Once full, each appended point overwrites the oldest in place, so
// steady-state eviction is O(1) per point instead of the O(capacity) slice
// copy a plain Series needs. The backing array grows geometrically up to the
// capacity bound, so short series stay small.
//
// Points move in and out in runs: PushRun appends a run and AppendRange
// copies a range out, each as at most two copies, one per side of the
// wrap. A point is stored as the wire's [t, v] pair.
//
// PointRing does not enforce time ordering; callers must push runs that
// strictly increase past Last (the memory server skips out-of-order points
// before pushing). SearchT relies on that ordering for binary search.
//
// The zero value is not usable; create PointRings with NewPointRing.
type PointRing struct {
	bound int          // capacity bound
	buf   [][2]float64 // len(buf) <= bound; grows geometrically until bound
	start int          // index of the oldest point
	n     int          // number of stored points
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

// PushRun appends pts, which the caller has checked strictly increase in
// time past Last, evicting the oldest points beyond the capacity bound. It
// reports how many points were evicted, counting points of pts itself that
// a run longer than the bound pushes straight out. The ring ends exactly as
// pushing the points one at a time would leave it, backing array size
// included: the array grows once, to the size the one-at-a-time doubling
// would reach.
func (r *PointRing) PushRun(pts [][2]float64) (evicted int) {
	if len(pts) == 0 {
		return 0
	}
	if need := min(r.n+len(pts), r.bound); need > len(r.buf) {
		r.grow(need)
	}
	size := len(r.buf)
	if len(pts) >= size { // the run's tail replaces everything
		evicted = r.n + len(pts) - size
		copy(r.buf, pts[len(pts)-size:])
		r.start, r.n = 0, size
		return evicted
	}
	if c := copy(r.buf[r.index(r.n):], pts); c < len(pts) {
		copy(r.buf, pts[c:])
	}
	if r.n += len(pts); r.n > size {
		evicted = r.n - size
		r.start, r.n = r.index(evicted), size
	}
	return evicted
}

// grow enlarges the backing array to the first size at or above need on the
// ladder 64, 128, 256, ... capped at the bound, linearizing the stored points
// so the write position is simple again.
func (r *PointRing) grow(need int) {
	size := len(r.buf)
	for size < need {
		size = min(max(2*size, pointRingMinAlloc), r.bound)
	}
	buf := make([][2]float64, size)
	r.AppendRange(buf[:0], 0, r.n)
	r.buf, r.start = buf, 0
}

// AppendRange appends the stored points [lo, hi) in time order (0 = oldest)
// to dst and returns the extended slice. It panics unless
// 0 <= lo <= hi <= Len.
func (r *PointRing) AppendRange(dst [][2]float64, lo, hi int) [][2]float64 {
	if lo < 0 || hi < lo || hi > r.n {
		panic("series: PointRing.AppendRange out of range")
	}
	if lo == hi {
		return dst
	}
	a := r.index(lo)
	b := a + hi - lo
	if b <= len(r.buf) {
		return append(dst, r.buf[a:b]...)
	}
	dst = append(dst, r.buf[a:]...)
	return append(dst, r.buf[:b-len(r.buf)]...)
}

// index maps the i-th point in time order, 0 <= i <= len(buf), to its slot
// in buf; i == len(buf) wraps to start.
func (r *PointRing) index(i int) int {
	if i += r.start; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// at returns the i-th stored point without bounds checking.
func (r *PointRing) at(i int) Point {
	p := r.buf[r.index(i)]
	return Point{T: p[0], V: p[1]}
}

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
