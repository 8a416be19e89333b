package sensors

import (
	"math"
	"testing"

	"nwscpu/internal/simos"
)

func simhost() (SimHost, *simos.Host) {
	h := simos.New(simos.DefaultConfig())
	return SimHost{H: h}, h
}

func spin(wall float64) simos.ProcSpec {
	return simos.ProcSpec{Demand: math.Inf(1), WallLimit: wall}
}

func TestLoadAvgSensorIdle(t *testing.T) {
	sh, h := simhost()
	h.RunUntil(60)
	s := NewLoadAvgSensor(sh)
	if got := s.Measure(); got < 0.99 {
		t.Fatalf("idle availability = %v, want ~1", got)
	}
	if s.Name() != "load_average" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestLoadAvgSensorOneSpinner(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(3600))
	h.RunUntil(600)
	s := NewLoadAvgSensor(sh)
	got := s.Measure()
	if math.Abs(got-0.5) > 0.03 {
		t.Fatalf("availability with one spinner = %v, want ~0.5 (Eq. 1)", got)
	}
}

func TestLoadAvgSensorTwoSpinners(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(3600))
	h.Spawn(spin(3600))
	h.RunUntil(600)
	got := NewLoadAvgSensor(sh).Measure()
	if math.Abs(got-1.0/3.0) > 0.03 {
		t.Fatalf("availability with two spinners = %v, want ~1/3", got)
	}
}

func TestVmstatSensorIdle(t *testing.T) {
	sh, h := simhost()
	s := NewVmstatSensor(sh, 0)
	h.RunUntil(10)
	s.Measure() // prime
	h.RunUntil(20)
	if got := s.Measure(); got < 0.99 {
		t.Fatalf("idle vmstat availability = %v, want ~1", got)
	}
}

func TestVmstatSensorOneSpinner(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(3600))
	s := NewVmstatSensor(sh, 0)
	// Let the run-queue EWMA converge over several measurement epochs.
	var got float64
	for tt := 10.0; tt <= 300; tt += 10 {
		h.RunUntil(tt)
		got = s.Measure()
	}
	// user = 1, idle = 0, rq -> 1: avail = 0 + 1/2 + w*0 = 0.5.
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("vmstat availability with one spinner = %v, want ~0.5 (Eq. 2)", got)
	}
}

func TestVmstatSensorFirstCallNoInterval(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(3600))
	h.RunUntil(10)
	s := NewVmstatSensor(sh, 0)
	got := s.Measure()
	if got < 0 || got > 1 {
		t.Fatalf("first measurement out of range: %v", got)
	}
}

func TestVmstatSensorSysTimeWeighting(t *testing.T) {
	// A pure-system-time hog (network gateway) should yield low availability:
	// with user ~ 0, w ~ 0, so the sys share is not counted as available.
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600, SysFrac: 1.0})
	s := NewVmstatSensor(sh, 0)
	var got float64
	for tt := 10.0; tt <= 300; tt += 10 {
		h.RunUntil(tt)
		got = s.Measure()
	}
	if got > 0.1 {
		t.Fatalf("vmstat availability with kernel-bound hog = %v, want ~0", got)
	}
}

func TestVmstatGainDefaulting(t *testing.T) {
	sh, _ := simhost()
	for _, g := range []float64{0, -1, 2} {
		s := NewVmstatSensor(sh, g)
		if s.rqGain != 0.25 {
			t.Fatalf("gain %v not defaulted: %v", g, s.rqGain)
		}
	}
	if s := NewVmstatSensor(sh, 0.5); s.rqGain != 0.5 {
		t.Fatal("valid gain overridden")
	}
}

func TestSensorsAreBlindToNice(t *testing.T) {
	// Both passive sensors must report ~50% availability under a nice-19
	// soaker even though a full-priority process would get ~100% — the
	// conundrum misreading.
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 7200})
	la := NewLoadAvgSensor(sh)
	vm := NewVmstatSensor(sh, 0)
	var laV, vmV float64
	for tt := 10.0; tt <= 600; tt += 10 {
		h.RunUntil(tt)
		laV = la.Measure()
		vmV = vm.Measure()
	}
	if laV > 0.6 || vmV > 0.6 {
		t.Fatalf("passive sensors saw through nice load: la=%v vm=%v", laV, vmV)
	}
	truth := RunTest(sh, 10)
	if truth < 0.9 {
		t.Fatalf("test process fraction = %v, want ~1", truth)
	}
}

func TestHybridCorrectsNiceBias(t *testing.T) {
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 7200})
	h.RunUntil(600)
	hy := NewHybridSensor(sh, DefaultHybridConfig())
	var last float64
	for i := 0; i < 62; i++ { // ten probe cycles: lets the bias EWMA converge
		h.RunUntil(h.Now() + 10)
		last = hy.Measure()
	}
	if last < 0.85 {
		t.Fatalf("hybrid availability under nice soaker = %v, want ~1 (bias corrected)", last)
	}
	if hy.Bias() < 0.3 {
		t.Fatalf("bias = %v, want large positive", hy.Bias())
	}
}

func TestHybridFooledByLongRunner(t *testing.T) {
	// The kongo misreading: the 1.5s probe evicts a long-running hog and
	// sees ~100%, so the hybrid over-reports availability relative to what
	// a 10s test process obtains.
	sh, h := simhost()
	h.Spawn(spin(7200))
	h.RunUntil(600)
	hy := NewHybridSensor(sh, DefaultHybridConfig())
	var last float64
	for i := 0; i < 62; i++ { // ten probe cycles for the bias EWMA
		h.RunUntil(h.Now() + 10)
		last = hy.Measure()
	}
	truth := RunTest(sh, 10)
	if last-truth < 0.2 {
		t.Fatalf("hybrid (%v) should substantially over-report vs test process (%v)", last, truth)
	}
}

func TestHybridProbeCadence(t *testing.T) {
	sh, h := simhost()
	hy := NewHybridSensor(sh, HybridConfig{ProbeEvery: 3, ProbeLen: 1.5})
	start := h.Now()
	for i := 0; i < 9; i++ {
		h.RunUntil(h.Now() + 10)
		hy.Measure()
	}
	// 9 epochs with probes at 0, 3, 6: 3 probes * 1.5s of blocking each.
	elapsed := h.Now() - start
	want := 90.0 + 3*1.5
	if math.Abs(elapsed-want) > 0.1 {
		t.Fatalf("elapsed = %v, want %v (probe intrusiveness)", elapsed, want)
	}
}

func TestHybridDisableBias(t *testing.T) {
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Nice: 19, Demand: math.Inf(1), WallLimit: 7200})
	h.RunUntil(600)
	cfg := DefaultHybridConfig()
	cfg.DisableBias = true
	hy := NewHybridSensor(sh, cfg)
	var last float64
	for i := 0; i < 12; i++ {
		h.RunUntil(h.Now() + 10)
		last = hy.Measure()
	}
	if hy.Bias() != 0 {
		t.Fatalf("bias = %v with DisableBias", hy.Bias())
	}
	if last > 0.7 {
		t.Fatalf("bias-disabled hybrid = %v, should be fooled like the passive methods", last)
	}
}

func TestHybridConfigValidation(t *testing.T) {
	sh, _ := simhost()
	for _, cfg := range []HybridConfig{
		{ProbeEvery: 0, ProbeLen: 1},
		{ProbeEvery: 6, ProbeLen: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewHybridSensor(sh, cfg)
		}()
	}
}

func TestHybridSelectedMethodReported(t *testing.T) {
	sh, h := simhost()
	hy := NewHybridSensor(sh, DefaultHybridConfig())
	h.RunUntil(10)
	hy.Measure()
	m := hy.SelectedMethod()
	if m != "load_average" && m != "vmstat" {
		t.Fatalf("SelectedMethod = %q", m)
	}
	if hy.Name() != "nws_hybrid" {
		t.Fatalf("Name = %q", hy.Name())
	}
}

func TestMeasurementsAlwaysInRange(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(1800))
	h.Spawn(simos.ProcSpec{Nice: 10, Demand: math.Inf(1), WallLimit: 1800})
	ss := []Sensor{
		NewLoadAvgSensor(sh),
		NewVmstatSensor(sh, 0),
		NewHybridSensor(sh, DefaultHybridConfig()),
	}
	for i := 0; i < 60; i++ {
		h.RunUntil(h.Now() + 10)
		for _, s := range ss {
			v := s.Measure()
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s measurement out of range: %v", s.Name(), v)
			}
		}
	}
}

func TestRunTestGroundTruth(t *testing.T) {
	sh, h := simhost()
	h.Spawn(spin(3600))
	h.RunUntil(60)
	got := RunTest(sh, 10)
	if got < 0.4 || got > 0.75 {
		t.Fatalf("test process vs one spinner = %v, want ~0.5-0.7", got)
	}
}

func TestVmstatWeightModes(t *testing.T) {
	// A network-gateway-style hog: all CPU time is system time. The paper's
	// user-fraction weighting and w=0 report low availability (the kernel
	// won't yield interrupt work); w=1 wrongly promises a fair share.
	measure := func(weight SysWeight) float64 {
		sh, h := simhost()
		h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600, SysFrac: 1.0})
		s := NewVmstatSensorWeight(sh, 0, weight)
		var got float64
		for tt := 10.0; tt <= 300; tt += 10 {
			h.RunUntil(tt)
			got = s.Measure()
		}
		return got
	}
	paper := measure(WeightUserFraction)
	full := measure(WeightFull)
	none := measure(WeightNone)
	if paper > 0.1 || none > 0.1 {
		t.Fatalf("paper %v / none %v should be ~0 on a kernel-bound host", paper, none)
	}
	if full < 0.4 {
		t.Fatalf("w=1 = %v, should over-credit (~0.5)", full)
	}
}

func TestVmstatWeightModesAgreeOnUserLoad(t *testing.T) {
	// With pure user-time load the three weightings coincide.
	vals := make([]float64, 3)
	for i, weight := range []SysWeight{WeightUserFraction, WeightFull, WeightNone} {
		sh, h := simhost()
		h.Spawn(spin(3600))
		s := NewVmstatSensorWeight(sh, 0, weight)
		for tt := 10.0; tt <= 300; tt += 10 {
			h.RunUntil(tt)
			vals[i] = s.Measure()
		}
	}
	if math.Abs(vals[0]-vals[1]) > 1e-9 || math.Abs(vals[0]-vals[2]) > 1e-9 {
		t.Fatalf("weightings differ on pure user load: %v", vals)
	}
}
