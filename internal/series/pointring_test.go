package series

import (
	"fmt"
	"math/rand"
	"testing"
)

// pushOne is the reference PushRun is checked against: the ring's former
// one-point write, growing the backing array one doubling at a time as the
// points arrive. It reports whether the point evicted one.
func pushOne(r *PointRing, p [2]float64) (evicted bool) {
	if r.n == len(r.buf) && r.n < r.bound {
		size := min(max(2*len(r.buf), pointRingMinAlloc), r.bound)
		buf := make([][2]float64, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.start+i)%len(r.buf)]
		}
		r.buf, r.start = buf, 0
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

// ringContents lists a ring's points in time order through At.
func ringContents(r *PointRing) [][2]float64 {
	out := make([][2]float64, r.Len())
	for i := range out {
		p := r.At(i)
		out[i] = [2]float64{p.T, p.V}
	}
	return out
}

// TestPointRingPushRunMatchesPointPushes drives two rings with the same
// seeded runs, one through PushRun and one a point at a time through
// pushOne, over bounds 1 to 300 and run lengths from 0 to past the bound:
// contents, eviction counts and backing-array sizes must agree after every
// run, and AppendRange over a random [lo, hi) must match At.
func TestPointRingPushRunMatchesPointPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for bound := 1; bound <= 300; bound++ {
		run, ref := NewPointRing(bound), NewPointRing(bound)
		tick := 0.0
		for step := 0; step < 12; step++ {
			var k int
			switch rng.Intn(4) {
			case 0:
				k = 0
			case 1:
				k = 1 + rng.Intn(3)
			case 2:
				k = rng.Intn(bound + 1)
			default:
				k = bound + rng.Intn(2*bound+2) // longer than the bound
			}
			pts := make([][2]float64, k)
			for i := range pts {
				tick += 1 + float64(rng.Intn(3))
				pts[i] = [2]float64{tick, rng.Float64()}
			}
			want := 0
			for _, p := range pts {
				if pushOne(ref, p) {
					want++
				}
			}
			where := fmt.Sprintf("bound %d step %d (run of %d)", bound, step, k)
			if got := run.PushRun(pts); got != want {
				t.Fatalf("%s: PushRun evicted %d, point pushes %d", where, got, want)
			}
			if len(run.buf) != len(ref.buf) {
				t.Fatalf("%s: backing array %d slots, point pushes %d", where, len(run.buf), len(ref.buf))
			}
			contents := ringContents(run)
			if fmt.Sprint(contents) != fmt.Sprint(ringContents(ref)) {
				t.Fatalf("%s: contents differ from point pushes", where)
			}
			lo := rng.Intn(run.Len() + 1)
			hi := lo + rng.Intn(run.Len()-lo+1)
			prefix := [][2]float64{{-1, -1}}
			got := run.AppendRange(prefix, lo, hi)
			if fmt.Sprint(got) != fmt.Sprint(append(prefix, contents[lo:hi]...)) {
				t.Fatalf("%s: AppendRange(%d, %d) = %v", where, lo, hi, got)
			}
		}
	}
}

func TestPointRingAppendRangePanicsOutOfRange(t *testing.T) {
	r := NewPointRing(4)
	r.PushRun([][2]float64{{1, 0}, {2, 0}})
	for _, c := range [][2]int{{-1, 1}, {1, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRange(%d, %d) on 2 points did not panic", c[0], c[1])
				}
			}()
			r.AppendRange(nil, c[0], c[1])
		}()
	}
}

func TestPointRingGrowsToBoundThenEvicts(t *testing.T) {
	r := NewPointRing(5)
	if r.bound != 5 || r.Len() != 0 {
		t.Fatalf("fresh ring: bound %d len %d", r.bound, r.Len())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring reported ok")
	}
	for i := 0; i < 5; i++ {
		if evicted := r.PushRun([][2]float64{{float64(i), float64(i) / 10}}); evicted != 0 {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	for i := 5; i < 12; i++ {
		if evicted := r.PushRun([][2]float64{{float64(i), float64(i) / 10}}); evicted != 1 {
			t.Fatalf("push %d at capacity did not evict", i)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len after wraps = %d, want 5", r.Len())
	}
	// The retained window is the last 5 pushes, in time order.
	for i := 0; i < 5; i++ {
		want := float64(7 + i)
		if got := r.At(i).T; got != want {
			t.Fatalf("At(%d).T = %v, want %v", i, got, want)
		}
	}
	if last, ok := r.Last(); !ok || last.T != 11 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestPointRingLazyAllocation(t *testing.T) {
	// A huge capacity bound must not allocate a huge array up front.
	r := NewPointRing(1 << 20)
	r.PushRun([][2]float64{{1, 0}})
	if len(r.buf) > pointRingMinAlloc {
		t.Fatalf("first push allocated %d slots", len(r.buf))
	}
	for i := 2; i <= 1000; i++ {
		r.PushRun([][2]float64{{float64(i), 0}})
	}
	if r.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", r.Len())
	}
	if len(r.buf) >= 1<<20 {
		t.Fatalf("backing array jumped to the bound (%d slots) for 1000 points", len(r.buf))
	}
	for i := 0; i < 1000; i++ {
		if got := r.At(i).T; got != float64(i+1) {
			t.Fatalf("At(%d).T = %v after growth, want %v", i, got, i+1)
		}
	}
}

func TestPointRingSearchT(t *testing.T) {
	r := NewPointRing(4)
	for i := 0; i < 7; i++ { // retained window: T = 3, 4, 5, 6 (start != 0)
		r.PushRun([][2]float64{{float64(i), 0}})
	}
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {3, 0}, {3.5, 1}, {4, 1}, {6, 3}, {6.5, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := r.SearchT(c.t); got != c.want {
			t.Errorf("SearchT(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestPointRingReset(t *testing.T) {
	r := NewPointRing(3)
	for i := 0; i < 5; i++ {
		r.PushRun([][2]float64{{float64(i), 0}})
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	r.PushRun([][2]float64{{9, 0}})
	if r.Len() != 1 || r.At(0).T != 9 {
		t.Fatalf("ring unusable after Reset: len %d", r.Len())
	}
}

func TestPointRingAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	NewPointRing(2).At(0)
}

func TestNewPointRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewPointRing(0)
}
