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

	"nwscpu/internal/stats"
)

// window is the caller's side of an OrderWindow: the arrival-order record
// the window itself does not keep, which hands each push the value it
// evicts.
type window struct {
	sorted  OrderWindow
	arrived []float64 // the window's values, oldest first
}

func newWindow(capacity int) *window {
	return &window{sorted: make(OrderWindow, 0, capacity)}
}

func (w *window) push(v float64) {
	var old float64
	if len(w.arrived) == cap(w.sorted) {
		old, w.arrived = w.arrived[0], w.arrived[1:]
	}
	w.sorted.Push(v, old)
	w.arrived = append(w.arrived, v)
}

func TestOrderWindowMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 2, 3, 5, 8, 50, 200, 256} {
		w := newWindow(capacity)
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
			w.push(v)
			if err := matchesReference(w); err != "" {
				t.Fatalf("cap %d step %d: %s", capacity, i, err)
			}
		}
	}
}

// matchesReference compares every order statistic of w's sorted window
// with stats.Median and stats.TrimmedMean over its arrival-order contents,
// and describes the first difference ("" when there is none). NaN results
// — ±Inf inputs can produce them — match each other.
func matchesReference(w *window) string {
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	if len(w.sorted) != len(w.arrived) {
		return fmt.Sprintf("len = %d, want %d", len(w.sorted), len(w.arrived))
	}
	sorted := append([]float64(nil), w.arrived...)
	sort.Float64s(sorted)
	for k, want := range sorted {
		if got := w.sorted[k]; got != want {
			return fmt.Sprintf("sorted[%d] = %v, want %v", k, got, want)
		}
	}
	if got, want := w.sorted.Median(), stats.Median(w.arrived); !same(got, want) {
		return fmt.Sprintf("Median = %v, want %v", got, want)
	}
	for _, f := range []float64{0.1, 0.2, 0.3, 0.49, 0.5} {
		if got, want := w.sorted.TrimmedMean(f), stats.TrimmedMean(w.arrived, f); !same(got, want) {
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
		w := newWindow(int(capacity) + 1)
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
			w.push(v)
			if err := matchesReference(w); err != "" {
				t.Fatalf("cap %d after %d values: %s", cap(w.sorted), len(w.arrived), err)
			}
		}
	})
}

func TestOrderWindowEmptyAndClamps(t *testing.T) {
	w := make(OrderWindow, 0, 4)
	if w.Median() != 0 || w.TrimmedMean(0.2) != 0 {
		t.Fatal("empty window should report 0 like the stats package")
	}
	w.Push(7, 0)
	if w.TrimmedMean(0.9) != 7 {
		t.Fatal("TrimmedMean with frac >= 0.5 should fall back to the median")
	}
}

func TestOrderWindowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() {
			var w OrderWindow
			w.Push(1, 0)
		},
		"evicting a value it does not hold": func() {
			w := make(OrderWindow, 0, 2)
			w.Push(1, 0)
			w.Push(2, 0)
			w.Push(3, 5)
		},
		"untrimmed mean": func() {
			w := OrderWindow{1, 2}
			w.TrimmedMean(0)
		},
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
	const capacity = 50
	w := make(OrderWindow, 0, capacity)
	var arrived [capacity]float64 // the caller's ring
	rng := rand.New(rand.NewSource(3))
	i := 0
	push := func(v float64) {
		w.Push(v, arrived[i%capacity])
		arrived[i%capacity] = v
		i++
	}
	for i < 200 {
		push(rng.Float64())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		push(float64(i%97) * 0.125)
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
// window of uniform values, at the bank's shortest window (5), its longest
// (50), and 200, where the memmove still beats a balanced tree.
func BenchmarkOrderWindowPush(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	for _, capacity := range []int{5, 50, 200} {
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			w := make(OrderWindow, 0, capacity)
			for _, v := range vals[:capacity] {
				w.Push(v, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// vals[j] entered the window capacity pushes ago.
				j := (i + capacity) % len(vals)
				w.Push(vals[j], vals[i%len(vals)])
				benchSink = w.Median()
			}
		})
	}
}
