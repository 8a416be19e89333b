// Package sched demonstrates the paper's motivating use case: dynamic
// application scheduling driven by CPU availability predictions. Predicted
// availability is used as an expansion factor — a task needing D CPU-seconds
// on a host predicted to be fraction a available is expected to take D/a
// wall seconds (Section 2 of the paper) — and a greedy list scheduler places
// each task on the host with the earliest predicted completion.
//
// Three policies are compared, mirroring the systems the paper cites:
//
//   - PolicyForecast: NWS forecasts over the hybrid sensor series (the
//     paper's proposal, as used by AppLeS).
//   - PolicyLoadAvg: instantaneous 1/(load+1) (what Prophet, Winner and MARS
//     used).
//   - PolicyRandom: uniform random placement (the null baseline).
package sched

import (
	"fmt"
	"math"
	"math/rand"

	"nwscpu/internal/forecast"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// MakeTasks builds n identical tasks of the given demand. A task is one unit
// of schedulable work, given by its demand in CPU seconds.
func MakeTasks(n int, demand float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = demand
	}
	return out
}

// Policy selects hosts for tasks.
type Policy int

// Scheduling policies.
const (
	PolicyForecast Policy = iota
	PolicyLoadAvg
	PolicyRandom
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyForecast:
		return "forecast"
	case PolicyLoadAvg:
		return "load_average"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Result summarizes one scheduling experiment.
type Result struct {
	Policy         Policy
	Makespan       float64 // wall time from placement until the last task exits
	MeanCompletion float64 // mean task completion time
	Placements     []int   // Placements[i] = host index of task i
}

// Cluster is a set of simulated hosts under background load, monitored by
// hybrid sensors feeding per-host forecast engines — the environment a grid
// application scheduler sees.
type Cluster struct {
	hosts   []*simos.Host
	sensors []*sensors.HybridSensor
	engines []*forecast.Engine
}

// NewCluster builds one host per profile and submits each profile's
// workload for the given horizon (warm-up + experiment duration).
func NewCluster(profiles []workload.Profile, horizon float64) *Cluster {
	c := &Cluster{}
	for _, p := range profiles {
		h := simos.New(simos.DefaultConfig())
		workload.Submit(h, p.Generate(horizon))
		sh := sensors.SimHost{H: h}
		c.hosts = append(c.hosts, h)
		c.sensors = append(c.sensors, sensors.NewHybridSensor(sh, sensors.DefaultHybridConfig()))
		c.engines = append(c.engines, forecast.NewDefaultEngine())
	}
	return c
}

// Warmup advances every host by the given duration while measuring at the
// given cadence, feeding the per-host forecast engines.
func (c *Cluster) Warmup(duration, period float64) {
	for i, h := range c.hosts {
		end := h.Now() + duration
		for epoch := h.Now() + period; epoch <= end; epoch += period {
			h.RunUntil(epoch)
			c.engines[i].Update(c.sensors[i].Measure())
			if h.Now() > epoch {
				// A probe consumed part of the grid; realign.
				k := math.Ceil((h.Now() - epoch) / period)
				epoch += k * period
			}
		}
	}
}

// predictions returns each host's availability estimate under a policy.
func (c *Cluster) predictions(p Policy, rng *rand.Rand) []float64 {
	out := make([]float64, len(c.hosts))
	for i, h := range c.hosts {
		switch p {
		case PolicyForecast:
			if pred, ok := c.engines[i].Forecast(); ok {
				out[i] = pred.Value
			} else {
				out[i] = 0.5
			}
		case PolicyLoadAvg:
			out[i] = 1 / (h.LoadAvg() + 1)
		case PolicyRandom:
			out[i] = rng.Float64()
		}
		if out[i] < 0.01 {
			out[i] = 0.01 // avoid infinite expansion factors
		}
	}
	return out
}

// newRngForPolicy builds the RNG the random policy draws from.
func newRngForPolicy(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Place assigns tasks greedily: each task goes to the host whose predicted
// completion time (queued demand plus this task, divided by predicted
// availability) is smallest. For PolicyRandom the "predictions" are random,
// which makes the placement uniform in expectation.
func (c *Cluster) Place(tasks []float64, p Policy, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	avail := c.predictions(p, rng)
	queued := make([]float64, len(c.hosts))
	placements := make([]int, len(tasks))
	for ti, demand := range tasks {
		best, bestETA := 0, math.Inf(1)
		for hi := range c.hosts {
			eta := (queued[hi] + demand) / avail[hi]
			if eta < bestETA {
				best, bestETA = hi, eta
			}
		}
		placements[ti] = best
		queued[best] += demand
	}
	return placements
}

// Execute spawns the tasks per the placement and runs every host until all
// tasks complete, returning the observed makespan and mean completion time.
// All hosts share the same virtual timeline (they were created together and
// advance in lockstep here).
func (c *Cluster) Execute(tasks []float64, placements []int) (makespan, meanCompletion float64) {
	if len(tasks) != len(placements) {
		panic("sched: placements length mismatch")
	}
	start := 0.0
	for _, h := range c.hosts {
		if h.Now() > start {
			start = h.Now()
		}
	}
	// Align all hosts to the same instant before placing.
	for _, h := range c.hosts {
		h.RunUntil(start)
	}
	pids := make([]simos.PID, len(tasks))
	for ti, demand := range tasks {
		h := c.hosts[placements[ti]]
		pids[ti] = h.Spawn(simos.ProcSpec{
			Demand: demand,
		})
	}
	var sum float64
	for ti := range tasks {
		h := c.hosts[placements[ti]]
		for {
			if _, at, ok := h.Exit(pids[ti]); ok {
				done := at - start
				sum += done
				if done > makespan {
					makespan = done
				}
				break
			}
			h.RunUntil(h.Now() + 10)
		}
	}
	if len(tasks) > 0 {
		meanCompletion = sum / float64(len(tasks))
	}
	return makespan, meanCompletion
}

// Experiment runs the full pipeline for one policy: build a cluster over the
// profiles, warm up the sensors, place, execute.
func Experiment(profiles []workload.Profile, tasks []float64, p Policy, warmup float64, seed int64) Result {
	// Horizon covers warm-up plus a generous execution window.
	var totalDemand float64
	for _, demand := range tasks {
		totalDemand += demand
	}
	horizon := warmup + 20*totalDemand
	c := NewCluster(profiles, horizon)
	c.Warmup(warmup, 10)
	placements := c.Place(tasks, p, seed)
	makespan, meanC := c.Execute(tasks, placements)
	return Result{Policy: p, Makespan: makespan, MeanCompletion: meanC, Placements: placements}
}
