package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the three family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64 // IEEE-754 bits of the float64 value
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative-on-exposition
// buckets, plus a running sum and count — enough to derive rates, means,
// and quantile estimates from scrapes. All methods are safe for concurrent
// use.
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; non-cumulative per bucket
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; past the end means +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since t0 — the idiom for the
// *_seconds latency histograms.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// atomicFloat is a float64 updated with CAS loops.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nu) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// DefLatencyBuckets are the default bounds for request-latency histograms,
// in seconds: 100µs to 10s, roughly half-decade steps.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// labelSep joins label values into child-map keys; label values containing
// the separator byte are sanitized at With time (NUL → U+FFFD) so values
// taken from untrusted input can never corrupt keys or crash the caller.
const labelSep = "\x00"

// child is one labeled time series inside a family.
type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge, or *Histogram
}

// family is one named metric with all its label combinations.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// get resolves (creating if needed) the child for one label-value tuple.
func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	sanitized := false
	for i, v := range values {
		if strings.Contains(v, labelSep) {
			if !sanitized {
				values = append([]string(nil), values...)
				sanitized = true
			}
			values[i] = strings.ReplaceAll(v, labelSep, "�")
		}
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c.metric
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.metric = &Counter{}
	case kindGauge:
		c.metric = &Gauge{}
	case kindHistogram:
		c.metric = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c.metric
}

// sortedChildren returns the children ordered by label values, for stable
// exposition.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ fam *family }

// With returns the counter for one label-value combination, creating it on
// first use. It panics on a label-count mismatch.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.get(labelValues).(*Counter)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ fam *family }

// With returns the gauge for one label-value combination, creating it on
// first use. It panics on a label-count mismatch.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.get(labelValues).(*Gauge)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ fam *family }

// With returns the histogram for one label-value combination, creating it
// on first use. It panics on a label-count mismatch.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.get(labelValues).(*Histogram)
}

// Registry holds metric families and renders them. The zero value is not
// usable; create registries with NewRegistry or use Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry the package-level constructors and
// the daemons use.
var Default = NewRegistry()

func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", name, l))
		}
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			buckets = DefLatencyBuckets
		}
		buckets = append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("metrics: %s: histogram buckets must be sorted", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] == buckets[i-1] {
				panic(fmt.Sprintf("metrics: %s: duplicate histogram bucket %g", name, buckets[i]))
			}
		}
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.families[name] = f
	return f
}

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: NewCounterVec needs at least one label (use NewCounter)")
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil)}
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("metrics: NewGaugeVec needs at least one label (use NewGauge)")
	}
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// NewHistogram registers and returns an unlabeled histogram with the given
// inclusive upper bounds (nil selects DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets).get(nil).(*Histogram)
}

// NewHistogramVec registers a histogram family with the given bounds (nil
// selects DefLatencyBuckets) and label names.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("metrics: NewHistogramVec needs at least one label (use NewHistogram)")
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels, buckets)}
}

// NewCounter registers an unlabeled counter in Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounterVec registers a labeled counter family in Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGauge registers an unlabeled gauge in Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGaugeVec registers a labeled gauge family in Default.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewHistogram registers an unlabeled histogram in Default.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewHistogramVec registers a labeled histogram family in Default.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
