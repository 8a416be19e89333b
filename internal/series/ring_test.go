package series

import (
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || r.Cap() != 3 || r.Full() {
		t.Fatalf("fresh ring: len=%d cap=%d full=%v", r.Len(), r.Cap(), r.Full())
	}
	r.Push(1)
	r.Push(2)
	if v, ok := r.Last(); !ok || v != 2 {
		t.Fatalf("Last = %v %v", v, ok)
	}
	r.Push(3)
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	r.Push(4) // evicts 1
	got := r.Values(nil)
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if r.At(0) != 2 || r.At(2) != 4 {
		t.Fatalf("At: %v %v", r.At(0), r.At(2))
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(5)
	for i := 1; i <= 7; i++ {
		r.Push(float64(i))
	}
	tail := r.Tail(3, nil)
	want := []float64{5, 6, 7}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("Tail = %v, want %v", tail, want)
		}
	}
	if got := r.Tail(100, nil); len(got) != 5 {
		t.Fatalf("Tail(100) len = %d", len(got))
	}
	if got := r.Tail(-1, nil); len(got) != 0 {
		t.Fatalf("Tail(-1) len = %d", len(got))
	}
}

func TestRingValuesReusesBuffer(t *testing.T) {
	r := NewRing(4)
	r.Push(1)
	r.Push(2)
	scratch := make([]float64, 0, 8)
	out := r.Values(scratch)
	if &out[0] != &scratch[:1][0] {
		t.Fatal("Values did not reuse provided buffer")
	}
}

func TestRingPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewRing(0) did not panic")
			}
		}()
		NewRing(0)
	}()
	r := NewRing(2)
	r.Push(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At out of range did not panic")
			}
		}()
		r.At(1)
	}()
}

// Property: after any push sequence, Values returns the last min(n, cap)
// pushed values in order.
func TestRingMatchesReference(t *testing.T) {
	prop := func(vals []float64, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		r := NewRing(capacity)
		for _, v := range vals {
			r.Push(v)
		}
		keep := len(vals)
		if keep > capacity {
			keep = capacity
		}
		want := vals[len(vals)-keep:]
		got := r.Values(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
