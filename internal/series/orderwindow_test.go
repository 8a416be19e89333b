package series

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// refMedian / refTrimmed replicate the stats package's
// copy-and-sort arithmetic so the equivalence checks below can assert exact
// (bitwise) agreement without importing stats (which would cycle).

func refSorted(xs []float64) []float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	return tmp
}

func refMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := refSorted(xs)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func refKahanMean(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

func refTrimmed(xs []float64, frac float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if frac <= 0 {
		return refKahanMean(xs)
	}
	if frac >= 0.5 {
		return refMedian(xs)
	}
	tmp := refSorted(xs)
	k := int(float64(n) * frac)
	if 2*k >= n {
		return refMedian(xs)
	}
	return refKahanMean(tmp[k : n-k])
}

func TestOrderWindowMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 2, 3, 5, 8, 50, 200, 256} {
		w := NewOrderWindow(capacity)
		window := make([]float64, 0, capacity)
		for i := 0; i < 3000; i++ {
			var v float64
			switch {
			case i >= 1000 && i < 1600:
				v = 42 // a run longer than any window: every eviction hits a duplicate
			case i%5 == 0:
				v = float64(rng.Intn(4)) // force duplicates
			default:
				v = rng.NormFloat64() * 100
			}
			w.Push(v)
			window = append(window, v)
			if len(window) > capacity {
				window = window[1:]
			}
			if err := matchesReference(w, window); err != "" {
				t.Fatalf("cap %d step %d: %s", capacity, i, err)
			}
		}
	}
}

// matchesReference compares every order statistic of w with the
// copy-and-sort reference over window, its expected contents in arrival
// order, and describes the first difference ("" when there is none). NaN
// results — ±Inf inputs can produce them — match each other.
func matchesReference(w *OrderWindow, window []float64) string {
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	if w.Len() != len(window) {
		return fmt.Sprintf("Len = %d, want %d", w.Len(), len(window))
	}
	// Every reference but the untrimmed mean depends only on the sorted
	// contents; handing it the sorted copy makes its own sort a linear pass.
	sorted := refSorted(window)
	for k, want := range sorted {
		if got := w.sorted[k]; got != want {
			return fmt.Sprintf("sorted[%d] = %v, want %v", k, got, want)
		}
	}
	if got, want := w.Median(), refMedian(sorted); !same(got, want) {
		return fmt.Sprintf("Median = %v, want %v", got, want)
	}
	if got, want := w.TrimmedMean(0), refTrimmed(window, 0); !same(got, want) {
		return fmt.Sprintf("TrimmedMean(0) = %v, want %v", got, want)
	}
	for _, f := range []float64{0.1, 0.2, 0.3, 0.49} {
		if got, want := w.TrimmedMean(f), refTrimmed(sorted, f); !same(got, want) {
			return fmt.Sprintf("TrimmedMean(%v) = %v, want %v", f, got, want)
		}
	}
	return ""
}

// FuzzOrderWindow drives a window of fuzzed capacity (1–256) with a fuzzed
// stream and checks every order statistic against the sorted reference
// after every push. Each stream byte is one value: 0xff and 0xfe are ±Inf,
// 0xfd is -0, 0xfc takes the next 8 bytes as raw float64 bits (NaN
// patterns are skipped: the window does not support NaN), and any other
// byte b is (b-128)/4, so long streams repeat values often.
func FuzzOrderWindow(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(4), []byte{0xff, 0xfe, 0xfd, 128, 128, 0xff, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(49), bytes.Repeat([]byte{9, 200, 9, 0xfd, 128}, 40))
	f.Add(uint8(255), append([]byte{0xfc, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, bytes.Repeat([]byte{3}, 300)...))
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // the reference re-sorts after every push
		}
		w := NewOrderWindow(int(capacity) + 1)
		var window []float64
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			var v float64
			switch {
			case b == 0xff:
				v = math.Inf(1)
			case b == 0xfe:
				v = math.Inf(-1)
			case b == 0xfd:
				v = math.Copysign(0, -1)
			case b == 0xfc && len(data) >= 8:
				v = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if math.IsNaN(v) {
					continue
				}
			default:
				v = (float64(b) - 128) / 4
			}
			w.Push(v)
			if window = append(window, v); len(window) > w.Cap() {
				window = window[1:]
			}
			if err := matchesReference(w, window); err != "" {
				t.Fatalf("cap %d after %d values: %s", w.Cap(), len(window), err)
			}
		}
	})
}

func TestOrderWindowEmptyAndClamps(t *testing.T) {
	w := NewOrderWindow(4)
	if w.Median() != 0 || w.TrimmedMean(0.2) != 0 {
		t.Fatal("empty window should report 0 like the stats package")
	}
	w.Push(7)
	if w.TrimmedMean(0.9) != 7 {
		t.Fatal("TrimmedMean with frac >= 0.5 should fall back to the median")
	}
}

func TestOrderWindowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() { NewOrderWindow(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// The whole point of OrderWindow: a full window must run without touching
// the allocator.
func TestOrderWindowSteadyStateAllocs(t *testing.T) {
	w := NewOrderWindow(50)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		w.Push(rng.Float64())
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		w.Push(float64(i%97) * 0.125)
		_ = w.Median()
		_ = w.TrimmedMean(0.2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// benchSink keeps the compiler from discarding a benchmarked read.
var benchSink float64

// BenchmarkOrderWindowPush times one push plus one median read on a full
// window of uniform values, at the bank's smallest window (5), its common
// one (50) and the engine's interval window (200, the longest shift).
func BenchmarkOrderWindowPush(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	for _, capacity := range []int{5, 50, 200} {
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			w := NewOrderWindow(capacity)
			for _, v := range vals[:capacity] {
				w.Push(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Push(vals[i%len(vals)])
				benchSink = w.Median()
			}
		})
	}
}
