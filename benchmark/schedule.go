package main

import (
	"fmt"
	"math"
)

// Everything a workload sends is a pure function of (seed, committed op
// counts): series i replays one trace of the availability pool from a seeded
// offset, and the request mixes draw from the splitmix64 streams below. The
// ledger functions recompute, from that function alone, what the program
// under test must hold or answer.

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix derives an independent 64-bit value for (a, b) from the seed.
func mix(seed, a, b uint64) uint64 {
	return splitmix64(seed*0x9E3779B97F4A7C15 ^ a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	v := splitmix64(r.s)
	r.s += 0x9E3779B97F4A7C15
	return v
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seriesSet is the population a workload stores and reads: series i belongs
// to host i/3 and sensor i%3 and replays the pool trace of that sensor on
// pool host (i/3 mod pool hosts), starting at a seeded offset. Tick k >= 1
// of series i is the point (k*cadence, val(i, k)).
type seriesSet struct {
	keys  []string
	index map[string]int32 // key -> i, for the traced handler wrappers
	trace [][]float64
	off   []int
}

func newSeriesSet(seed uint64, n int, pool [][]float64) *seriesSet {
	s := &seriesSet{
		keys:  make([]string, n),
		index: make(map[string]int32, n),
		trace: make([][]float64, n),
		off:   make([]int, n),
	}
	poolHosts := len(pool) / 3
	for i := 0; i < n; i++ {
		h := i / 3
		s.keys[i] = seriesKey(fmt.Sprintf("host-%04d", h), i%3)
		s.index[s.keys[i]] = int32(i)
		s.trace[i] = pool[3*(h%poolHosts)+i%3]
		s.off[i] = int(mix(seed, uint64(h), 100) % uint64(len(s.trace[i])))
	}
	return s
}

func (s *seriesSet) val(i, tick int) float64 {
	tr := s.trace[i]
	return tr[(s.off[i]+tick)%len(tr)]
}

func tickTime(tick int) float64 { return float64(tick) * cadence }

// fnv is FNV-1a over little-endian 64-bit words, the same byte order the
// memory's SeriesDigest uses.
type fnv uint64

const (
	fnvOffset fnv = 14695981039346656037
	fnvPrime      = 1099511628211
)

func (h *fnv) word(u uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (u >> (8 * i)) & 0xff
		x *= fnvPrime
	}
	*h = fnv(x)
}

func (h *fnv) point(t, v float64) {
	h.word(math.Float64bits(t))
	h.word(math.Float64bits(v))
}

// digest is what Memory.Digest must report for a series.
type digest struct {
	count    uint64
	frontier float64
	sum      uint64
}

// ledgerDigest computes the digest of series i after ticks 1..last were
// stored into a ring of the given capacity.
func (s *seriesSet) ledgerDigest(i, last, capacity int) digest {
	first := 1
	if last > capacity {
		first = last - capacity + 1
	}
	h := fnvOffset
	for k := first; k <= last; k++ {
		h.point(tickTime(k), s.val(i, k))
	}
	return digest{count: uint64(last - first + 1), frontier: tickTime(last), sum: uint64(h)}
}

// checkDigests compares every series of mem against the ledger.
func (s *seriesSet) checkDigests(what string, mem *Memory, last func(i int) int, capacity int) error {
	for i, key := range s.keys {
		want := s.ledgerDigest(i, last(i), capacity)
		got, ok := mem.Digest(key)
		if !ok {
			return fmt.Errorf("%s: series %s missing", what, key)
		}
		if got.Count != want.count || got.Frontier != want.frontier || got.Sum != want.sum {
			return fmt.Errorf("%s: series %s digest {n=%d frontier=%g sum=%x}, ledger {n=%d frontier=%g sum=%x}",
				what, key, got.Count, got.Frontier, got.Sum, want.count, want.frontier, want.sum)
		}
	}
	return nil
}

// prefill stores ticks 1..last(i) of every series i straight into h, in
// chunks, one series per request.
func (s *seriesSet) prefill(h Handler, last func(i int) int) error {
	const chunk = 512
	pts := make([][2]float64, 0, chunk)
	for i, key := range s.keys {
		for k, end := 1, last(i); k <= end; {
			pts = pts[:0]
			for ; k <= end && len(pts) < chunk; k++ {
				pts = append(pts, [2]float64{tickTime(k), s.val(i, k)})
			}
			if resp := h.Handle(Request{Op: opStore, Series: key, Points: pts}); resp.Error != "" {
				return fmt.Errorf("prefill %s: %s", key, resp.Error)
			}
		}
	}
	return nil
}

// retained sums Memory.Len over the set.
func (s *seriesSet) retained(mem *Memory) int64 {
	var n int64
	for _, key := range s.keys {
		n += int64(mem.Len(key))
	}
	return n
}

// hostTick fills batch with the store sub-requests of one sensor-daemon
// tick of host h (series 3h..3h+2, fewer on the set's last host) and returns
// the filled prefix. pts provides the backing point storage, one per sensor.
func (s *seriesSet) hostTick(h, tick int, batch *[3]Request, pts *[3][1][2]float64) []Request {
	n := 0
	for i := 3 * h; i < 3*h+3 && i < len(s.keys); i++ {
		pts[n][0] = [2]float64{tickTime(tick), s.val(i, tick)}
		batch[n] = Request{Op: opStore, Series: s.keys[i], Points: pts[n][:]}
		n++
	}
	return batch[:n]
}

func (s *seriesSet) hosts() int { return (len(s.keys) + 2) / 3 }

// upTo is the ledger of a set whose series all stand at the same tick.
func upTo(tick int) func(int) int { return func(int) int { return tick } }
