package simos

import (
	"math"
	"testing"
)

// TestStealNilIsBitIdentical pins the zero-cost default: a host with no
// steal schedule must evolve exactly like one that predates the feature.
func TestStealNilIsBitIdentical(t *testing.T) {
	run := func(setNil bool) (Counters, float64, float64) {
		h := newHost()
		if setNil {
			h.SetSteal(nil)
		}
		h.Spawn(spinner(0))
		h.SubmitAll([]float64{30}, []ProcSpec{{Demand: 5}})
		h.RunUntil(60)
		frac := h.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 1.5})
		return h.Counters(), h.LoadAvg(), frac
	}
	c1, l1, r1 := run(false)
	c2, l2, r2 := run(true)
	if c1 != c2 || l1 != l2 || r1 != r2 {
		t.Fatalf("nil steal diverged: %+v/%v/%v vs %+v/%v/%v", c1, l1, r1, c2, l2, r2)
	}
}

// TestStealSlowsProgressButHidesFromPassiveSensors is the paper's point:
// under a constant 50% steal a lone spinner's probe fraction halves, a
// fixed demand takes twice the wall time, yet the guest's loadavg and
// user-time counters are identical to the unstolen run — only an active
// probe reveals it.
func TestStealSlowsProgressButHidesFromPassiveSensors(t *testing.T) {
	mk := func(steal float64) *Host {
		h := newHost()
		if steal > 0 {
			h.SetSteal(func(float64) float64 { return steal })
		}
		return h
	}

	// A fixed CPU demand needs 1/(1-steal) times the wall time.
	clean, stolen := mk(0), mk(0.5)
	clean.RunProcess(ProcSpec{Demand: 10})
	stolen.RunProcess(ProcSpec{Demand: 10})
	if math.Abs(clean.Now()-10) > 0.05 {
		t.Fatalf("clean 10s demand took %v wall", clean.Now())
	}
	if math.Abs(stolen.Now()-20) > 0.1 {
		t.Fatalf("50%% steal: 10s demand took %v wall, want ~20", stolen.Now())
	}

	// A wall-limited probe on a busy host: guest accounting identical,
	// probe fraction halved.
	clean, stolen = mk(0), mk(0.5)
	for _, h := range []*Host{clean, stolen} {
		h.Spawn(spinner(0))
		h.RunUntil(300)
	}
	c1, c2 := clean.Counters(), stolen.Counters()
	if c1.User != c2.User || c1.Sys != c2.Sys || c1.Nice != c2.Nice || c1.Idle != c2.Idle {
		t.Fatalf("guest accounting saw the steal: %+v vs %+v", c1, c2)
	}
	if clean.LoadAvg() != stolen.LoadAvg() {
		t.Fatalf("loadavg saw the steal: %v vs %v", clean.LoadAvg(), stolen.LoadAvg())
	}
	r1 := clean.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 3})
	r2 := stolen.RunProcess(ProcSpec{Demand: math.Inf(1), WallLimit: 3})
	if r2 > 0.75*r1 {
		t.Fatalf("probe blind to steal: clean %v vs stolen %v", r1, r2)
	}
}

// TestStealClamped verifies out-of-range schedules are clamped: negative
// steal gives no speedup and steal > 1 cannot make progress negative.
func TestStealClamped(t *testing.T) {
	h := newHost()
	h.SetSteal(func(float64) float64 { return -3 })
	h.RunProcess(ProcSpec{Demand: 5})
	if math.Abs(h.Now()-5) > 0.05 {
		t.Fatalf("negative steal changed progress: wall %v", h.Now())
	}
	h2 := newHost()
	h2.SetSteal(func(float64) float64 { return 2 })
	pid := h2.Spawn(ProcSpec{Demand: 5, WallLimit: 10})
	h2.RunUntil(20)
	frac2, _, ok := h2.Exit(pid)
	if !ok {
		t.Fatal("fully stolen process never reaped")
	}
	if frac2 != 0 {
		t.Fatalf("fully stolen process made progress: fraction %v", frac2)
	}
}
