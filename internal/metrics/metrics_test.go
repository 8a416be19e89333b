package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "a counter")
	v := r.NewCounterVec("test_labeled_total", "a labeled counter", "op")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.With("store").Inc()
				v.With("fetch").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := v.With("store").Value(); got != workers*perWorker {
		t.Errorf("store = %d, want %d", got, workers*perWorker)
	}
	if got := v.With("fetch").Value(); got != 2*workers*perWorker {
		t.Errorf("fetch = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_gauge", "a gauge")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Inc()
				g.Add(2)
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 2*workers*perWorker {
		t.Errorf("gauge = %g, want %d", got, 2*workers*perWorker)
	}
	g.Set(-4.5)
	if got := g.Value(); got != -4.5 {
		t.Errorf("after Set: %g", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "a histogram", []float64{1, 2, 4})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(0.5)
				h.Observe(3)
				h.Observe(100)
			}
		}()
	}
	wg.Wait()
	const n = workers * perWorker
	if got := h.Count(); got != 3*n {
		t.Errorf("count = %d, want %d", got, 3*n)
	}
	if got, want := h.Sum(), float64(n)*(0.5+3+100); math.Abs(got-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	wantCounts := []uint64{n, 0, n, n} // (<=1, <=2, <=4, +Inf) non-cumulative
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_bounds", "boundary semantics", []float64{1, 2, 4})
	// Prometheus buckets are inclusive upper bounds: v == bound lands in
	// that bucket, not the next.
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {1, 0}, // exactly on the first bound
		{1.0000001, 1}, {2, 1},
		{2.5, 2}, {4, 2},
		{4.0000001, 3}, {math.Inf(1), 3},
	}
	for _, c := range cases {
		before := make([]uint64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%g): bucket %d = %d, want %d", c.v, i, got, want)
			}
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	cases := []struct {
		name string
		fn   func()
	}{
		{"duplicate name", func() { r.NewCounter("dup_total", "") }},
		{"bad metric name", func() { r.NewCounter("9starts-with-digit", "") }},
		{"bad label name", func() { r.NewCounterVec("ok_total", "", "bad-label") }},
		{"vec without labels", func() { r.NewCounterVec("ok2_total", "") }},
		{"unsorted buckets", func() { r.NewHistogram("h1_seconds", "", []float64{2, 1}) }},
		{"duplicate buckets", func() { r.NewHistogram("h2_seconds", "", []float64{1, 1}) }},
		{"label count mismatch", func() {
			v := r.NewCounterVec("v_total", "", "op")
			v.With("a", "b")
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestVecReturnsSameChild(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("same_total", "", "op")
	a, b := v.With("x"), v.With("x")
	if a != b {
		t.Fatal("With returned distinct children for equal labels")
	}
	if v.With("y") == a {
		t.Fatal("distinct labels share a child")
	}
}

// Label values arrive from untrusted wire input in the daemons, so a NUL
// byte must be sanitized, not panic (a panic here was a remote DoS).
func TestNULLabelValueSanitized(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("nul_total", "", "op")
	v.With("a\x00b").Inc()
	if v.With("a\x00b") != v.With("a�b") {
		t.Error("NUL not mapped to U+FFFD replacement character")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "\x00") {
		t.Errorf("exposition contains a raw NUL byte:\n%s", out)
	}
	if !strings.Contains(out, `nul_total{op="a�b"} 1`) {
		t.Errorf("sanitized series missing from exposition:\n%s", out)
	}
}
