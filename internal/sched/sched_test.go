package sched

import (
	"math"
	"testing"

	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// testProfiles builds a small cluster with one idle host, one host under a
// full-priority spinner, and one conundrum-style host (nice-19 soaker) whose
// capacity only the forecast policy can see.
func testProfiles(horizon float64) []workload.Profile {
	idle := workload.Profile{Name: "idle", Seed: 1}
	// A host churning short full-priority jobs: busy in a way every sensor
	// (including the probe) agrees on. Long-running hogs would instead
	// trigger the kongo anomaly and fool the hybrid probe.
	busy := workload.Profile{
		Name: "busy", Seed: 2,
		JobRate: 1.0 / 20, JobShape: 3, JobScale: 8, JobMax: 60,
	}
	conundrum := workload.Profile{
		Name: "conundrum", Seed: 3,
		Fixtures: []workload.Fixture{
			{At: 0, Spec: simos.ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: horizon + 1}},
		},
	}
	return []workload.Profile{idle, busy, conundrum}
}

func TestPolicyString(t *testing.T) {
	if PolicyForecast.String() != "forecast" ||
		PolicyLoadAvg.String() != "load_average" ||
		PolicyRandom.String() != "random" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}

func TestMakeTasks(t *testing.T) {
	tasks := MakeTasks(5, 30)
	if len(tasks) != 5 || tasks[2] != 30 {
		t.Fatalf("MakeTasks = %+v", tasks)
	}
}

func TestPlaceSpreadsAcrossIdleHosts(t *testing.T) {
	profiles := []workload.Profile{
		{Name: "a", Seed: 1}, {Name: "b", Seed: 2},
	}
	c := NewCluster(profiles, 5000)
	c.Warmup(300, 10)
	placements := c.Place(MakeTasks(4, 50), PolicyForecast, 1)
	counts := map[int]int{}
	for _, h := range placements {
		counts[h]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("placements = %v, want an even split", placements)
	}
}

func TestForecastPolicySeesThroughNice(t *testing.T) {
	horizon := 5000.0
	c := NewCluster(testProfiles(horizon), horizon)
	c.Warmup(600, 10)
	// The forecast (hybrid-sensor) policy should treat the conundrum host as
	// nearly idle; the load-average view cannot see past the soaker.
	fPred := c.predictions(PolicyForecast, nil)
	lPred := c.predictions(PolicyLoadAvg, nil)
	if fPred[2] < 0.8 {
		t.Fatalf("forecast availability of conundrum = %v, want ~1 (bias-corrected)", fPred[2])
	}
	if lPred[2] > 0.65 {
		t.Fatalf("load-average availability of conundrum = %v, want ~0.5 (fooled)", lPred[2])
	}
	if fPred[1] >= fPred[2] {
		t.Fatalf("forecast ranks busy host (%v) above conundrum (%v)", fPred[1], fPred[2])
	}
	// And the placement should use the conundrum host.
	fPlace := c.Place(MakeTasks(6, 30), PolicyForecast, 1)
	usedConundrum := 0
	for _, h := range fPlace {
		if h == 2 {
			usedConundrum++
		}
	}
	if usedConundrum == 0 {
		t.Fatalf("forecast policy never used the conundrum host: %v", fPlace)
	}
}

func TestExperimentForecastBeatsRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	tasks := MakeTasks(6, 30)
	var fSum, rSum float64
	for _, seed := range []int64{7, 8, 9} {
		f := Experiment(testProfiles(0), tasks, PolicyForecast, 600, seed)
		r := Experiment(testProfiles(0), tasks, PolicyRandom, 600, seed)
		if f.Makespan <= 0 || r.Makespan <= 0 {
			t.Fatalf("degenerate makespans: %v %v", f.Makespan, r.Makespan)
		}
		fSum += f.Makespan
		rSum += r.Makespan
	}
	if fSum > rSum*1.15 {
		t.Fatalf("mean forecast makespan %v worse than random %v", fSum/3, rSum/3)
	}
}

func TestExecuteValidation(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}}, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched placements accepted")
		}
	}()
	c.Execute(MakeTasks(2, 10), []int{0})
}

func TestExecuteCompletesAllTasks(t *testing.T) {
	c := NewCluster([]workload.Profile{{Name: "a", Seed: 1}, {Name: "b", Seed: 2}}, 10000)
	c.Warmup(60, 10)
	tasks := MakeTasks(4, 20)
	placements := c.Place(tasks, PolicyForecast, 3)
	makespan, mean := c.Execute(tasks, placements)
	if makespan <= 0 || mean <= 0 || mean > makespan {
		t.Fatalf("makespan %v mean %v", makespan, mean)
	}
	// Two idle hosts, 2 tasks each of 20 CPU-seconds: the pair on one host
	// shares, so makespan ~ 40s.
	if makespan < 30 || makespan > 60 {
		t.Fatalf("makespan = %v, want ~40", makespan)
	}
}
