package series

// Ring is a fixed-capacity ring buffer of float64 values. It backs the
// sliding-window forecasters: once full, each Push evicts the oldest value.
// The zero value is not usable; create Rings with NewRing.
type Ring struct {
	buf   []float64
	start int // index of oldest element
	n     int // number of stored elements
}

// NewRing returns a ring buffer holding at most capacity values.
// It panics if capacity < 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("series: NewRing capacity must be >= 1")
	}
	return &Ring{buf: make([]float64, capacity)}
}

// Push appends v, evicting the oldest value if the ring is full.
func (r *Ring) Push(v float64) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
}

// Len returns the number of stored values.
func (r *Ring) Len() int { return r.n }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Full reports whether the ring has reached capacity.
func (r *Ring) Full() bool { return r.n == len(r.buf) }

// At returns the i-th stored value in insertion order (0 = oldest). It
// panics if i is out of range.
func (r *Ring) At(i int) float64 {
	if i < 0 || i >= r.n {
		panic("series: Ring.At out of range")
	}
	// start and i are both below len(buf): one conditional subtraction
	// wraps, where a modulo would cost an integer division per read.
	j := r.start + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// Last returns the most recently pushed value. ok is false when empty.
func (r *Ring) Last() (v float64, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.At(r.n - 1), true
}

// Values copies the stored values into dst in insertion order and returns
// the filled prefix. If dst is too small, a new slice is allocated. Passing a
// reused scratch slice avoids per-call allocation in forecaster hot paths.
func (r *Ring) Values(dst []float64) []float64 {
	if cap(dst) < r.n {
		dst = make([]float64, r.n)
	}
	dst = dst[:r.n]
	for i := 0; i < r.n; i++ {
		dst[i] = r.At(i)
	}
	return dst
}

// Tail copies the most recent k stored values (oldest first) into dst,
// allocating if needed. If k exceeds Len, all values are returned.
func (r *Ring) Tail(k int, dst []float64) []float64 {
	if k > r.n {
		k = r.n
	}
	if k < 0 {
		k = 0
	}
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	dst = dst[:k]
	for i := 0; i < k; i++ {
		dst[i] = r.At(r.n - k + i)
	}
	return dst
}

// Reset empties the ring without releasing its storage.
func (r *Ring) Reset() { r.start, r.n = 0, 0 }
