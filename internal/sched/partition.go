package sched

import (
	"nwscpu/internal/simos"
)

// This file implements forecast-driven data-parallel partitioning, the
// AppLeS strategy of the applications that motivated the paper (Berman et
// al. [2]; Spring & Wolski's gene-sequence comparison [24]): a divisible
// job of W total CPU-seconds is split into one chunk per host, with chunk
// sizes proportional to each host's predicted availability, so that all
// chunks — running concurrently — finish at the same time. The paper's
// introduction is exactly about making this split well; its conclusion
// cites >100% gains from doing so with far cruder measurements.

// Partition splits total CPU-seconds across the cluster's hosts
// proportionally to the policy's availability estimates:
//
//	chunk_i = total * avail_i / sum(avail)
//
// Equal-share splitting falls out of PolicyRandom in expectation; for a
// deterministic equal split use PartitionEqual.
func (c *Cluster) Partition(total float64, p Policy, seed int64) []float64 {
	if total <= 0 {
		panic("sched: Partition total must be positive")
	}
	rng := newRngForPolicy(seed)
	avail := c.predictions(p, rng)
	var sum float64
	for _, a := range avail {
		sum += a
	}
	chunks := make([]float64, len(avail))
	for i, a := range avail {
		chunks[i] = total * a / sum
	}
	return chunks
}

// PartitionEqual splits total evenly across the hosts — the baseline an
// availability-blind scheduler would use.
func (c *Cluster) PartitionEqual(total float64) []float64 {
	if total <= 0 {
		panic("sched: PartitionEqual total must be positive")
	}
	n := len(c.hosts)
	chunks := make([]float64, n)
	for i := range chunks {
		chunks[i] = total / float64(n)
	}
	return chunks
}

// ExecutePartition spawns one chunk per host (skipping zero-size chunks)
// and runs all hosts until every chunk completes, returning the makespan
// and per-host finish times.
func (c *Cluster) ExecutePartition(chunks []float64) (makespan float64, finish []float64) {
	if len(chunks) != len(c.hosts) {
		panic("sched: chunk count must equal host count")
	}
	start := 0.0
	for _, h := range c.hosts {
		if h.Now() > start {
			start = h.Now()
		}
	}
	for _, h := range c.hosts {
		h.RunUntil(start)
	}
	pids := make([]simos.PID, len(chunks))
	for i, w := range chunks {
		if w <= 0 {
			continue
		}
		pids[i] = c.hosts[i].Spawn(simos.ProcSpec{
			Demand: w,
		})
	}
	finish = make([]float64, len(chunks))
	for i, w := range chunks {
		if w <= 0 {
			continue
		}
		h := c.hosts[i]
		for {
			if _, at, ok := h.Exit(pids[i]); ok {
				finish[i] = at - start
				break
			}
			h.RunUntil(h.Now() + 5)
		}
		if finish[i] > makespan {
			makespan = finish[i]
		}
	}
	return makespan, finish
}

// PartitionExperiment runs the full data-parallel pipeline: build the
// cluster, warm the sensors, split total CPU-seconds per the policy, and
// execute. It returns the makespan, the wall time until the last chunk
// finished. Pass PolicyRandom for an effectively random split; use
// equal == true to force the equal-share baseline instead of a policy.
func (c *Cluster) PartitionExperiment(total float64, p Policy, equal bool, seed int64) float64 {
	var chunks []float64
	if equal {
		chunks = c.PartitionEqual(total)
	} else {
		chunks = c.Partition(total, p, seed)
	}
	makespan, _ := c.ExecutePartition(chunks)
	return makespan
}
