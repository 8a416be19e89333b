package sched

import (
	"math"
	"testing"

	"nwscpu/internal/workload"
)

func TestPartitionValidation(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}}, 1000)
	for _, f := range []func(){
		func() { c.Partition(0, PolicyForecast, 1) },
		func() { c.PartitionEqual(-1) },
		func() { c.ExecutePartition([]float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPartitionConservesWork(t *testing.T) {
	horizon := 10000.0
	c := NewCluster(testProfiles(horizon), horizon)
	c.Warmup(300, 10)
	chunks := c.Partition(300, PolicyForecast, 1)
	var sum float64
	for _, w := range chunks {
		if w < 0 {
			t.Fatalf("negative chunk: %v", chunks)
		}
		sum += w
	}
	if math.Abs(sum-300) > 1e-9 {
		t.Fatalf("chunks sum to %v, want 300", sum)
	}
}

func TestPartitionEqual(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}, {Name: "b", Seed: 2}}, 1000)
	chunks := c.PartitionEqual(100)
	if chunks[0] != 50 || chunks[1] != 50 {
		t.Fatalf("equal split = %v", chunks)
	}
}

func TestPartitionFavorsAvailableHosts(t *testing.T) {
	horizon := 10000.0
	c := NewCluster(testProfiles(horizon), horizon) // idle, busy, conundrum
	c.Warmup(600, 10)
	chunks := c.Partition(300, PolicyForecast, 1)
	if chunks[0] <= chunks[1] {
		t.Fatalf("idle host got %v <= busy host %v", chunks[0], chunks[1])
	}
	if chunks[2] <= chunks[1] {
		t.Fatalf("conundrum (really idle) got %v <= busy host %v", chunks[2], chunks[1])
	}
}

func TestExecutePartitionIdleCluster(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}, {Name: "b", Seed: 2}}, 10000)
	makespan, finish := c.ExecutePartition([]float64{60, 30})
	if math.Abs(finish[0]-60) > 1 || math.Abs(finish[1]-30) > 1 {
		t.Fatalf("finish = %v", finish)
	}
	if math.Abs(makespan-60) > 1 {
		t.Fatalf("makespan = %v", makespan)
	}
}

func TestExecutePartitionSkipsZeroChunks(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}, {Name: "b", Seed: 2}}, 10000)
	makespan, finish := c.ExecutePartition([]float64{40, 0})
	if finish[1] != 0 {
		t.Fatalf("zero chunk executed: %v", finish)
	}
	if makespan < 35 {
		t.Fatalf("makespan = %v", makespan)
	}
}

// The paper's headline application claim: forecast-proportional partitioning
// beats the equal split when host capacities differ.
func TestForecastPartitionBeatsEqualSplit(t *testing.T) {
	horizon := 20000.0
	run := func(equal bool) float64 {
		c := NewCluster(testProfiles(horizon), horizon)
		c.Warmup(600, 10)
		return c.PartitionExperiment(600, PolicyForecast, equal, 1)
	}
	forecastMakespan := run(false)
	equalMakespan := run(true)
	if forecastMakespan >= equalMakespan {
		t.Fatalf("forecast partition %v not better than equal %v",
			forecastMakespan, equalMakespan)
	}
	// The gain should be substantial on this skewed cluster (the paper
	// reports >100% gains on real applications; require at least 15% here —
	// the hybrid's optimism about the busy host caps the gain).
	if equalMakespan/forecastMakespan < 1.15 {
		t.Fatalf("gain only %.2fx (forecast %v, equal %v)",
			equalMakespan/forecastMakespan, forecastMakespan, equalMakespan)
	}
}
