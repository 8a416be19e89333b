// Package series provides the time-series containers used by the sensors and
// forecasters: timestamped measurement series, fixed-capacity ring buffers
// for sliding windows, time-based aggregation (the X^(m) block means of the
// paper's Section 3.2), and CSV/JSON persistence for traces.
//
// Timestamps are float64 seconds on whatever clock produced the series —
// virtual seconds for the simulator, Unix seconds for live monitoring. The
// package never interprets absolute time; only differences matter.
package series

import (
	"errors"
	"fmt"
)

// Point is one timestamped measurement.
type Point struct {
	T float64 // seconds
	V float64 // measured value (e.g. fraction of CPU available, in [0,1])
}

// Series is an append-only sequence of Points ordered by time. The zero
// value is an empty, usable series.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// New returns an empty series with the given name and unit.
func New(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// FromValues builds a series from evenly spaced values: point i carries time
// t0 + i*dt.
func FromValues(name string, t0, dt float64, values []float64) *Series {
	s := New(name, "")
	s.Points = make([]Point, len(values))
	for i, v := range values {
		s.Points[i] = Point{T: t0 + float64(i)*dt, V: v}
	}
	return s
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Append adds a point. It returns an error if t is earlier than the last
// point's time (series are strictly time-ordered; equal times are allowed so
// that instantaneous re-measurements are representable).
func (s *Series) Append(t, v float64) error {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		return fmt.Errorf("series: out-of-order append at t=%v (last %v)", t, s.Points[n-1].T)
	}
	s.Points = append(s.Points, Point{T: t, V: v})
	return nil
}

// Values returns the measurement values in time order as a fresh slice.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Times returns the timestamps in order as a fresh slice.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.T
	}
	return out
}

// Last returns the most recent point. ok is false for an empty series.
func (s *Series) Last() (p Point, ok bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// At returns the i-th point (0-based). It panics if i is out of range, like
// a slice index.
func (s *Series) At(i int) Point { return s.Points[i] }

// ErrBadAggregation reports an invalid aggregation parameter.
var ErrBadAggregation = errors.New("series: aggregation parameters invalid")

// AggregateCount returns the series of non-overlapping m-point block means
// (the aggregated series X^(m) of Section 3.2). Each aggregated point is
// stamped with the time of the last point of its block. A trailing partial
// block is discarded. m must be >= 1.
func (s *Series) AggregateCount(m int) (*Series, error) {
	if m < 1 {
		return nil, ErrBadAggregation
	}
	out := New(s.Name, s.Unit)
	if m == 1 {
		out.Points = append([]Point(nil), s.Points...)
		return out, nil
	}
	nb := len(s.Points) / m
	out.Points = make([]Point, nb)
	for b := 0; b < nb; b++ {
		var sum float64
		for i := b * m; i < (b+1)*m; i++ {
			sum += s.Points[i].V
		}
		out.Points[b] = Point{
			T: s.Points[(b+1)*m-1].T,
			V: sum / float64(m),
		}
	}
	return out, nil
}
