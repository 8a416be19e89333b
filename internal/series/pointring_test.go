package series

import "testing"

func TestPointRingGrowsToBoundThenEvicts(t *testing.T) {
	r := NewPointRing(5)
	if r.bound != 5 || r.Len() != 0 {
		t.Fatalf("fresh ring: bound %d len %d", r.bound, r.Len())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring reported ok")
	}
	for i := 0; i < 5; i++ {
		if evicted := r.Push(Point{T: float64(i), V: float64(i) / 10}); evicted {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	for i := 5; i < 12; i++ {
		if evicted := r.Push(Point{T: float64(i), V: float64(i) / 10}); !evicted {
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
	r.Push(Point{T: 1})
	if len(r.buf) > pointRingMinAlloc {
		t.Fatalf("first push allocated %d slots", len(r.buf))
	}
	for i := 2; i <= 1000; i++ {
		r.Push(Point{T: float64(i)})
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
		r.Push(Point{T: float64(i)})
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
		r.Push(Point{T: float64(i)})
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	r.Push(Point{T: 9})
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
