package sched

import (
	"math"
	"math/rand"

	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// This file implements self-scheduling (dynamic work-queue) dispatch, the
// strategy of the AppLeS gene-sequence application the paper's authors built
// on these forecasts (Spring & Wolski, ICS 1998): instead of placing every
// task up front, each host is handed work only when it finishes its previous
// piece, and the forecasts choose which free host gets the next piece.
// Self-scheduling tolerates forecast error better than static placement
// because a mistake costs one task, not a whole queue.

// DynamicResult extends Result with dispatch telemetry.
type DynamicResult struct {
	Result
	Dispatches []int // Dispatches[i] = number of tasks host i executed
}

// RunDynamic executes tasks with self-scheduling under the given policy:
// whenever a host is free, the next queued task goes to the free host with
// the best current availability estimate (for PolicyRandom, effectively a
// random free host). The cluster's sensors keep measuring during execution,
// so later dispatch decisions see the load earlier tasks created.
//
// The simulation advances all hosts in lockstep at the given quantum in
// seconds (10 matches the paper's sensing cadence). It panics on a
// non-positive quantum.
func (c *Cluster) RunDynamic(tasks []float64, p Policy, seed int64, quantum float64) DynamicResult {
	if quantum <= 0 {
		panic("sched: RunDynamic quantum must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(c.hosts)

	// Align all hosts on a common instant.
	start := 0.0
	for _, h := range c.hosts {
		if h.Now() > start {
			start = h.Now()
		}
	}
	for _, h := range c.hosts {
		h.RunUntil(start)
	}

	res := DynamicResult{
		Result:     Result{Policy: p, Placements: make([]int, len(tasks))},
		Dispatches: make([]int, n),
	}
	const free = simos.PID(0)
	busy := make([]simos.PID, n) // PID of the running task; 0 = free
	next := 0
	done := 0
	var sumCompletion float64

	dispatch := func() {
		for next < len(tasks) {
			avail := c.predictions(p, rng)
			best := -1
			bestScore := math.Inf(-1)
			for hi := 0; hi < n; hi++ {
				if busy[hi] != free {
					continue
				}
				if avail[hi] > bestScore {
					best, bestScore = hi, avail[hi]
				}
			}
			if best == -1 {
				return // every host is busy
			}
			busy[best] = c.hosts[best].Spawn(simos.ProcSpec{
				Demand: tasks[next],
			})
			res.Placements[next] = best
			res.Dispatches[best]++
			next++
		}
	}

	dispatch()
	for done < len(tasks) {
		// Advance one quantum everywhere, feeding the sensors.
		for i, h := range c.hosts {
			h.RunUntil(h.Now() + quantum)
			c.engines[i].Update(c.sensors[i].Measure())
		}
		// Reap completions and hand out more work.
		for hi := 0; hi < n; hi++ {
			if busy[hi] == free {
				continue
			}
			if _, at, ok := c.hosts[hi].Exit(busy[hi]); ok {
				completion := at - start
				sumCompletion += completion
				if completion > res.Makespan {
					res.Makespan = completion
				}
				busy[hi] = free
				done++
			}
		}
		dispatch()
	}
	if len(tasks) > 0 {
		res.MeanCompletion = sumCompletion / float64(len(tasks))
	}
	return res
}

// DynamicExperiment builds a cluster over the profiles, warms the sensors,
// and executes the tasks with self-scheduling under the given policy.
func DynamicExperiment(profiles []workload.Profile, tasks []float64, p Policy, warmup float64, seed int64) DynamicResult {
	var totalDemand float64
	for _, demand := range tasks {
		totalDemand += demand
	}
	horizon := warmup + 20*totalDemand
	c := NewCluster(profiles, horizon)
	c.Warmup(warmup, 10)
	return c.RunDynamic(tasks, p, seed, 10)
}
