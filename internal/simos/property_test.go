package simos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any random mixture of processes, the accounting identities
// hold after any amount of simulated time:
//
//	user + nice + sys + idle == total == NumCPUs * wall
//	sum of per-process CPU time <= total busy time
//	load average >= 0
func TestRandomWorkloadInvariants(t *testing.T) {
	prop := func(seed int64, nProcsRaw, cpusRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.NumCPUs = int(cpusRaw%4) + 1
		h := New(cfg)

		nProcs := int(nProcsRaw%8) + 1
		pids := make([]PID, 0, nProcs)
		for i := 0; i < nProcs; i++ {
			spec := ProcSpec{
				Nice:    int(rng.Int31n(20)),
				SysFrac: rng.Float64(),
			}
			switch rng.Intn(3) {
			case 0:
				spec.Demand = 1 + rng.Float64()*30
			case 1:
				spec.Demand = math.Inf(1)
				spec.WallLimit = 1 + rng.Float64()*60
			default:
				spec.Demand = math.Inf(1)
				spec.WallLimit = 1 + rng.Float64()*60
				spec.BurstCPU = 0.05 + rng.Float64()
				spec.BurstSleep = 0.05 + rng.Float64()*3
			}
			if rng.Intn(2) == 0 {
				pids = append(pids, h.Spawn(spec))
			} else {
				h.SubmitAll([]float64{rng.Float64() * 30}, []ProcSpec{spec})
			}
		}
		wall := 20 + rng.Float64()*60
		h.RunUntil(wall)

		c := h.Counters()
		if math.Abs(c.User+c.Nice+c.Sys+c.Idle-c.Total) > 1e-6 {
			return false
		}
		wantTotal := float64(cfg.NumCPUs) * h.Now()
		if math.Abs(c.Total-wantTotal) > 0.1 {
			return false
		}
		if h.LoadAvg() < 0 {
			return false
		}
		// Per-process CPU never exceeds wall clock (one CPU per process).
		for _, pid := range pids {
			if p := h.find(pid); p != nil && p.cpuTime > h.Now()+1e-6 {
				return false
			}
			// Spawned at 0, so the exit time is the wall time.
			if frac, at, ok := h.Exit(pid); ok && frac*at > at+0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the simulator is deterministic — identical submissions produce
// identical counters and load averages.
func TestDeterminism(t *testing.T) {
	build := func() *Host {
		h := New(DefaultConfig())
		h.Spawn(ProcSpec{Demand: 12.3, SysFrac: 0.2})
		h.SubmitAll([]float64{7}, []ProcSpec{{Nice: 5, Demand: math.Inf(1), WallLimit: 40,
			BurstCPU: 0.3, BurstSleep: 0.7}})
		h.SubmitAll([]float64{19}, []ProcSpec{{Demand: 5}})
		h.RunUntil(60)
		return h
	}
	h1, h2 := build(), build()
	if h1.Counters() != h2.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", h1.Counters(), h2.Counters())
	}
	if h1.LoadAvg() != h2.LoadAvg() {
		t.Fatalf("load averages diverged: %v vs %v", h1.LoadAvg(), h2.LoadAvg())
	}
	if h1.RunQueue() != h2.RunQueue() {
		t.Fatalf("run queues diverged")
	}
}
