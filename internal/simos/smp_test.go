package simos

import (
	"math"
	"testing"
)

func smpHost(n int) *Host {
	cfg := DefaultConfig()
	cfg.NumCPUs = n
	return New(cfg)
}

func TestSMPValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs = -1
	defer func() {
		if recover() == nil {
			t.Fatal("negative NumCPUs accepted")
		}
	}()
	New(cfg)
}

func TestSMPZeroDefaultsToOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs = 0
	h := New(cfg)
	if h.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d, want 1", h.NumCPUs())
	}
}

func TestSMPTwoSpinnersOnFourCPUs(t *testing.T) {
	h := smpHost(4)
	h.Spawn(spinner(0))
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 30})
	if frac < 0.999 {
		t.Fatalf("spinner on idle CPU got %v, want ~1", frac)
	}
}

func TestSMPFourSpinnersOnTwoCPUs(t *testing.T) {
	h := smpHost(2)
	for i := 0; i < 3; i++ {
		h.Spawn(spinner(0))
	}
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 120})
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("4 spinners on 2 CPUs: fraction %v, want ~0.5", frac)
	}
}

func TestSMPProcessCannotUseTwoCPUs(t *testing.T) {
	// A single process on a 4-way machine gets at most 1 CPU of time.
	h := smpHost(4)
	frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 10})
	if frac > 1.001 {
		t.Fatalf("single process exceeded one CPU: %v", frac)
	}
	if frac < 0.995 {
		t.Fatalf("single process on an idle 4-way machine: fraction %v, want 1", frac)
	}
}

func TestSMPAccountingConservation(t *testing.T) {
	h := smpHost(4)
	h.Spawn(spinner(0))
	h.Spawn(ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 100, SysFrac: 0.5})
	h.RunUntil(100)
	c := h.Counters()
	if math.Abs(c.Total-400) > 0.1 {
		t.Fatalf("Total = %v, want 400 (4 CPUs x 100 s)", c.Total)
	}
	if math.Abs(c.User+c.Nice+c.Sys+c.Idle-c.Total) > 1e-6 {
		t.Fatalf("accounting leak: %+v", c)
	}
	// Two busy processes on 4 CPUs: ~200 s busy, ~200 s idle.
	busy := c.User + c.Nice + c.Sys
	if math.Abs(busy-200) > 1 {
		t.Fatalf("busy = %v, want ~200", busy)
	}
}

func TestSMPLoadAverageCountsAllRunnable(t *testing.T) {
	h := smpHost(4)
	for i := 0; i < 3; i++ {
		h.Spawn(spinner(0))
	}
	h.RunUntil(600)
	if l := h.LoadAvg(); math.Abs(l-3) > 0.05 {
		t.Fatalf("SMP load average = %v, want ~3", l)
	}
}

func TestSMPNicePreemptedOnlyWhenSaturated(t *testing.T) {
	// 2 CPUs, one full-priority spinner, one nice spinner: both can run
	// simultaneously, so the nice job is NOT starved.
	h := smpHost(2)
	h.Spawn(spinner(0))
	frac := h.RunProcess(ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 60})
	if frac < 0.95 {
		t.Fatalf("nice job on spare SMP CPU got %v, want ~1", frac)
	}
}
