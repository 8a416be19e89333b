package simos

import (
	"math"
	"testing"
)

func newHost() *Host { return New(DefaultConfig()) }

func spinner(nice int) ProcSpec {
	return ProcSpec{Nice: nice, Demand: math.Inf(1), WallLimit: 3600}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	cases := []Config{
		{},
		{Tick: 0.01, DecayPeriod: 0.001, LoadSamplePeriod: 5, LoadTimeConstant: 60},
		{Tick: 0.01, DecayPeriod: 1, LoadSamplePeriod: 5, LoadTimeConstant: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad config accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestClockAdvances(t *testing.T) {
	h := newHost()
	if h.Now() != 0 {
		t.Fatalf("initial Now = %v", h.Now())
	}
	h.RunUntil(10)
	if math.Abs(h.Now()-10) > 0.011 {
		t.Fatalf("Now = %v, want ~10", h.Now())
	}
	before := h.Now()
	h.RunUntil(5) // in the past: no-op
	if h.Now() != before {
		t.Fatal("RunUntil went backwards")
	}
}

func TestIdleAccounting(t *testing.T) {
	h := newHost()
	h.RunUntil(100)
	c := h.Counters()
	if math.Abs(c.Idle-100) > 0.02 || math.Abs(c.Total-100) > 0.02 {
		t.Fatalf("idle host counters = %+v", c)
	}
	if c.User != 0 || c.Sys != 0 || c.Nice != 0 {
		t.Fatalf("idle host consumed CPU: %+v", c)
	}
}

func TestLoneProcessGetsFullCPU(t *testing.T) {
	h := newHost()
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 10})
	if frac < 0.999 {
		t.Fatalf("lone process fraction = %v, want ~1", frac)
	}
	if math.Abs(h.Now()-10) > 0.02 {
		t.Fatalf("wall = %v, want 10", h.Now())
	}
}

func TestTwoEqualSpinnersShareFairly(t *testing.T) {
	h := newHost()
	h.Spawn(spinner(0))
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 60})
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("competing process fraction = %v, want ~0.5", frac)
	}
}

func TestConservation(t *testing.T) {
	// user + nice + sys + idle == total, and total CPU granted <= wall time.
	h := newHost()
	h.Spawn(ProcSpec{Demand: 30, SysFrac: 0.25})
	h.Spawn(ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 200})
	h.SubmitAll([]float64{50}, []ProcSpec{{Demand: 10}})
	h.RunUntil(200)
	c := h.Counters()
	if math.Abs(c.User+c.Nice+c.Sys+c.Idle-c.Total) > 1e-6 {
		t.Fatalf("accounting leak: %+v", c)
	}
	if c.Total < 199.9 || c.Total > 200.1 {
		t.Fatalf("total = %v", c.Total)
	}
	busy := c.User + c.Nice + c.Sys
	if busy > c.Total+1e-9 {
		t.Fatalf("granted more CPU than wall time: %+v", c)
	}
}

func TestDemandCompletion(t *testing.T) {
	h := newHost()
	frac := h.RunProcess(ProcSpec{Demand: 5})
	if cpu := frac * h.Now(); math.Abs(cpu-5) > 0.02 {
		t.Fatalf("CPU time = %v, want 5", cpu)
	}
	if math.Abs(h.Now()-5) > 0.02 { // idle host: wall == cpu
		t.Fatalf("wall = %v, want 5", h.Now())
	}
	if len(h.procs) != 0 {
		t.Fatal("completed process still live")
	}
}

func TestSysFracAccounting(t *testing.T) {
	h := newHost()
	h.RunProcess(ProcSpec{Demand: 10, SysFrac: 0.3})
	c := h.Counters()
	if math.Abs(c.Sys-3) > 0.05 || math.Abs(c.User-7) > 0.05 {
		t.Fatalf("sysfrac accounting: %+v", c)
	}
}

func TestNiceAccountedSeparately(t *testing.T) {
	h := newHost()
	h.RunProcess(ProcSpec{Nice: 19, Demand: 5})
	c := h.Counters()
	if math.Abs(c.Nice-5) > 0.05 || c.User > 0.01 {
		t.Fatalf("nice accounting: %+v", c)
	}
}

func TestLoadAverageConvergesToSpinnerCount(t *testing.T) {
	h := newHost()
	h.Spawn(spinner(0))
	h.Spawn(spinner(0))
	h.Spawn(spinner(0))
	h.RunUntil(600) // 10 time constants
	if l := h.LoadAvg(); math.Abs(l-3) > 0.05 {
		t.Fatalf("load average = %v, want ~3", l)
	}
}

func TestLoadAverageDecaysWhenIdle(t *testing.T) {
	idleAt300 := ProcSpec{Demand: math.Inf(1), WallLimit: 300}
	h := newHost()
	h.Spawn(idleAt300)
	h.RunUntil(300)
	prev := h.LoadAvg()
	for _, tt := range []float64{330, 360, 420, 600} {
		h.RunUntil(tt)
		l := h.LoadAvg()
		if l > prev+1e-9 {
			t.Fatalf("load average rose while idle: %v -> %v", prev, l)
		}
		prev = l
	}
	if prev > 0.01 {
		t.Fatalf("load average did not decay to ~0: %v", prev)
	}
	// One-minute time constant: after 60 idle seconds the load should have
	// decayed by roughly e.
	h2 := newHost()
	h2.Spawn(idleAt300)
	h2.RunUntil(300)
	l0 := h2.LoadAvg()
	h2.RunUntil(360)
	ratio := h2.LoadAvg() / l0
	if math.Abs(ratio-math.Exp(-1)) > 0.05 {
		t.Fatalf("decay over 60s = %v, want ~1/e", ratio)
	}
}

// The conundrum phenomenon: a nice-19 background spinner inflates the load
// average, but a full-priority process preempts it and obtains nearly the
// whole CPU.
func TestNiceBackgroundIsPreempted(t *testing.T) {
	h := newHost()
	h.Spawn(ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 7200})
	h.RunUntil(600)
	if l := h.LoadAvg(); l < 0.9 {
		t.Fatalf("background spinner load = %v, want ~1", l)
	}
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 10})
	if frac < 0.93 {
		t.Fatalf("full-priority process got %v of CPU against nice-19 bg, want ~1", frac)
	}
}

// The kongo phenomenon: a long-running full-priority hog is temporarily
// evicted by a fresh short probe (the probe sees ~100% available), while a
// longer test process ends up sharing and sees much less.
func TestLongRunnerEvictedByShortProbe(t *testing.T) {
	h := newHost()
	h.Spawn(ProcSpec{Demand: math.Inf(1), WallLimit: 7200})
	h.RunUntil(600) // hog accumulates pcpu
	probe := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 1.5})
	if probe < 0.9 {
		t.Fatalf("1.5s probe fraction = %v, want ~1 (eviction)", probe)
	}
	h.RunUntil(h.Now() + 120) // let the hog re-equilibrate
	test := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 10})
	if test > 0.85 {
		t.Fatalf("10s test fraction = %v, want well below the probe's", test)
	}
	if test < 0.45 {
		t.Fatalf("10s test fraction = %v, should still beat a fair 50%% share", test)
	}
}

func TestBurstProcessSleeps(t *testing.T) {
	h := newHost()
	// Compute 1s, sleep 3s, repeat: ~25% utilization on an idle machine.
	h.Spawn(ProcSpec{Demand: math.Inf(1), WallLimit: 400,
		BurstCPU: 1, BurstSleep: 3})
	h.RunUntil(400)
	c := h.Counters()
	util := (c.User + c.Nice + c.Sys) / c.Total
	if util < 0.2 || util > 0.3 {
		t.Fatalf("burst process utilization = %v, want ~0.25", util)
	}
}

func TestSubmitAtFutureArrival(t *testing.T) {
	h := newHost()
	h.SubmitAll([]float64{50}, []ProcSpec{{Demand: 5}})
	h.RunUntil(49)
	if len(h.procs) != 0 {
		t.Fatal("process arrived early")
	}
	h.RunUntil(51)
	if len(h.procs) != 1 {
		t.Fatal("process did not arrive")
	}
	h.RunUntil(60)
	if len(h.procs) != 0 {
		t.Fatal("process did not finish")
	}
	c := h.Counters()
	if math.Abs(c.User-5) > 0.05 {
		t.Fatalf("arrival consumed %v CPU, want 5", c.User)
	}
}

func TestSubmitAtPastClamps(t *testing.T) {
	h := newHost()
	h.RunUntil(10)
	h.SubmitAll([]float64{5}, []ProcSpec{{Demand: 1}})
	h.RunUntil(10.02)
	if len(h.procs) != 1 {
		t.Fatal("past-dated arrival not admitted immediately")
	}
}

func TestSubmitAllSortsArrivals(t *testing.T) {
	h := newHost()
	h.SubmitAll(
		[]float64{30, 10, 20},
		[]ProcSpec{{Demand: 1}, {Demand: 1}, {Demand: 1}},
	)
	h.RunUntil(10.5)
	if len(h.procs) != 1 {
		t.Fatalf("live at t=10.5: %d, want 1", len(h.procs))
	}
	h.RunUntil(35)
	if len(h.procs) != 0 {
		t.Fatal("arrivals did not all complete")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SubmitAll length mismatch accepted")
			}
		}()
		h.SubmitAll([]float64{1}, nil)
	}()
}

func TestSpawnValidation(t *testing.T) {
	h := newHost()
	for i, spec := range []ProcSpec{
		{},                       // no demand, no wall limit
		{Demand: 1, SysFrac: -1}, // bad sysfrac
		{Demand: 1, SysFrac: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			h.Spawn(spec)
		}()
	}
}

func TestRunProcessNeverReturningPanics(t *testing.T) {
	h := newHost()
	defer func() {
		if recover() == nil {
			t.Fatal("RunProcess(inf, no wall) accepted")
		}
	}()
	h.RunProcess(ProcSpec{Demand: math.Inf(1)})
}

func TestPriorityDegradationSharesWithLatecomer(t *testing.T) {
	// Two full-priority spinners started 100s apart must converge to a fair
	// share thanks to pcpu decay; without decay the first would starve the
	// second indefinitely or vice versa.
	h := newHost()
	h.Spawn(spinner(0))
	h.RunUntil(100)
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 120})
	if frac < 0.4 || frac > 0.75 {
		t.Fatalf("latecomer fraction over 120s = %v, want ~0.5-0.7", frac)
	}
}

func TestRunQueueCountsOnlyRunnable(t *testing.T) {
	h := newHost()
	h.Spawn(ProcSpec{Demand: math.Inf(1), WallLimit: 100,
		BurstCPU: 0.1, BurstSleep: 50})
	h.Spawn(spinner(0))
	h.RunUntil(10) // sleeper has burst-slept by now
	if rq := h.RunQueue(); rq != 1 {
		t.Fatalf("RunQueue = %d, want 1 (sleeper excluded)", rq)
	}
	if len(h.procs) != 2 {
		t.Fatalf("live processes = %d, want 2", len(h.procs))
	}
}

func BenchmarkHostTick(b *testing.B) {
	h := newHost()
	for i := 0; i < 5; i++ {
		h.Spawn(ProcSpec{Demand: math.Inf(1), WallLimit: 1e9})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}

func TestKernelProcessPreemptsEverything(t *testing.T) {
	h := newHost()
	// A duty-cycled kernel interrupt load (40%) against a full-priority
	// user process: the user process gets only the remaining 60%.
	h.Spawn(ProcSpec{Kernel: true, SysFrac: 1,
		Demand: math.Inf(1), WallLimit: 7200, BurstCPU: 0.2, BurstSleep: 0.3})
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 60})
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("user fraction vs 40%% kernel load = %v, want ~0.6", frac)
	}
	c := h.Counters()
	if c.Sys < 20 {
		t.Fatalf("kernel time accounted as sys = %v, want ~24", c.Sys)
	}
}
