package workload

import (
	"errors"
	"math"

	"nwscpu/internal/series"
	"nwscpu/internal/simos"
)

// FromUtilizationTrace converts a recorded utilization trace (busy fraction
// in [0, 1] over time) into an arrival stream that reproduces its load shape
// on the simulator: each inter-sample interval receives one job whose CPU
// demand equals the interval's target busy time, bounded by the interval
// (WallLimit) so backlogs cannot smear a burst into later intervals.
//
// This inverts the measurement direction: where the rest of the package
// generates load and measures availability, replay takes an availability-
// or utilization-shaped series (e.g. a CSV exported from a live host via
// cmd/nwstrace) and drives the simulator with it, so forecasters can be
// stress-tested against real-world load shapes inside the deterministic
// testbed.
//
// The trace must have at least two points with strictly increasing times;
// values are clamped to [0, 1].
func FromUtilizationTrace(trace *series.Series) ([]Arrival, error) {
	if trace.Len() < 2 {
		return nil, errors.New("workload: utilization trace needs at least two points")
	}
	var out []Arrival
	for i := 1; i < trace.Len(); i++ {
		prev, cur := trace.At(i-1), trace.At(i)
		dt := cur.T - prev.T
		if dt <= 0 {
			return nil, errors.New("workload: utilization trace times must strictly increase")
		}
		u := prev.V
		if math.IsNaN(u) || u <= 0 {
			continue
		}
		if u > 1 {
			u = 1
		}
		// Spread the interval's demand across the interval as a duty-cycled
		// burst process rather than one front-loaded run: a compact burst at
		// the interval start aliases against the kernel's 5-second load
		// sampling and disappears from the load average entirely.
		spec := simos.ProcSpec{
			Demand:    u * dt,
			WallLimit: dt,
		}
		if u < 1 {
			const burst = 0.25 // seconds of CPU per duty cycle
			spec.BurstCPU = burst
			spec.BurstSleep = burst * (1/u - 1)
		}
		out = append(out, Arrival{T: prev.T, Spec: spec})
	}
	return out, nil
}

// FromAvailabilityTrace is FromUtilizationTrace for availability-shaped
// input: the load replayed is 1 - availability.
func FromAvailabilityTrace(trace *series.Series) ([]Arrival, error) {
	inv := series.New(trace.Name+"/inverted", trace.Unit)
	for _, p := range trace.Points {
		v := 1 - p.V
		if err := inv.Append(p.T, v); err != nil {
			return nil, err
		}
	}
	return FromUtilizationTrace(inv)
}
