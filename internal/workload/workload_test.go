package workload

import (
	"math"
	"math/rand"
	"testing"

	"nwscpu/internal/forecast"
	"nwscpu/internal/simos"
	"nwscpu/internal/stats"
)

func TestParetoPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []func(){
		func() { BoundedPareto(rng, 0, 1, 2) },
		func() { BoundedPareto(rng, 1, 2, 2) },
		func() { Exp(rng, 0) },
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

func TestBoundedParetoRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		v := BoundedPareto(rng, 1.6, 5, 100)
		if v < 5-1e-9 || v > 100+1e-9 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	// With alpha = 1.6, P(X > 10*xm) = (1/10)^1.6 ~ 2.5% before bounding;
	// check the tail is populated but not dominant.
	rng := rand.New(rand.NewSource(5))
	n, tail := 100000, 0
	for i := 0; i < n; i++ {
		if BoundedPareto(rng, 1.6, 5, 5000) > 50 {
			tail++
		}
	}
	frac := float64(tail) / float64(n)
	if frac < 0.01 || frac > 0.05 {
		t.Fatalf("tail fraction = %v, want ~0.025", frac)
	}
}

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += Exp(rng, 7)
	}
	if got := sum / float64(n); math.Abs(got-7) > 0.1 {
		t.Fatalf("Exp mean = %v, want 7", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Thing1()
	a1 := p.Generate(3600)
	a2 := p.Generate(3600)
	if len(a1) != len(a2) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].T != a2[i].T || a1[i].Spec.Demand != a2[i].Spec.Demand {
			t.Fatalf("non-deterministic arrival %d", i)
		}
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	for _, p := range Profiles(7200) {
		as := p.Generate(7200)
		for i := range as {
			if i > 0 && as[i].T < as[i-1].T {
				t.Fatalf("%s: arrivals unsorted at %d", p.Name, i)
			}
			if as[i].T >= 7200 {
				t.Fatalf("%s: arrival beyond duration: %v", p.Name, as[i].T)
			}
		}
	}
}

func TestGeneratePanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero duration accepted")
		}
	}()
	Thing1().Generate(0)
}

func TestDailyCycleModulatesRate(t *testing.T) {
	p := Thing2()
	p.SessionRate = 0 // jobs only, cleaner counting
	as := p.Generate(2 * day)
	// Compare arrivals in the 4-hour window around the peak (16:00) with
	// the window around the trough (04:00), summed over both days.
	peak, trough := 0, 0
	for _, a := range as {
		tod := math.Mod(a.T, day)
		switch {
		case tod >= 14*3600 && tod < 18*3600:
			peak++
		case tod >= 2*3600 && tod < 6*3600:
			trough++
		}
	}
	if peak <= trough {
		t.Fatalf("daily cycle absent: peak %d, trough %d", peak, trough)
	}
}

func TestFixturesIncluded(t *testing.T) {
	p := Conundrum(3600)
	as := p.Generate(3600)
	found := false
	for _, a := range as {
		if math.IsInf(a.Spec.Demand, 1) {
			if a.T != 0 || a.Spec.Nice != 19 {
				t.Fatalf("soaker fixture wrong: %+v", a)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("conundrum fixture missing")
	}
	// A fixture beyond the duration must be dropped.
	p.Fixtures = append(p.Fixtures, Fixture{At: 7200, Spec: simos.ProcSpec{Demand: 1}})
	for _, a := range p.Generate(3600) {
		if a.T == 7200 {
			t.Fatal("out-of-duration fixture not dropped")
		}
	}
}

func TestSubmitDrivesHost(t *testing.T) {
	h := simos.New(simos.DefaultConfig())
	p := Gremlin()
	Submit(h, p.Generate(1800))
	h.RunUntil(1800)
	c := h.Counters()
	busy := c.User + c.Nice + c.Sys
	if busy <= 0 {
		t.Fatal("workload generated no CPU usage")
	}
	if busy >= c.Total {
		t.Fatalf("gremlin should be lightly loaded: busy %v of %v", busy, c.Total)
	}
}

func TestProfileUtilizationOrdering(t *testing.T) {
	// thing2 must be busier than thing1, which must be busier than gremlin.
	util := func(p Profile) float64 {
		h := simos.New(simos.DefaultConfig())
		Submit(h, p.Generate(4*3600))
		h.RunUntil(4 * 3600)
		c := h.Counters()
		return (c.User + c.Nice + c.Sys) / c.Total
	}
	u1, u2, ug := util(Thing1()), util(Thing2()), util(Gremlin())
	if !(u2 > u1 && u1 > ug) {
		t.Fatalf("utilization ordering violated: thing2=%v thing1=%v gremlin=%v", u2, u1, ug)
	}
}

func TestHeavyTailedLoadIsLongRangeDependent(t *testing.T) {
	// The availability series of a heavy-tailed-load host should show high
	// Hurst; this is the generative premise behind Figure 3 / Table 4.
	if testing.Short() {
		t.Skip("long simulation")
	}
	h := simos.New(simos.DefaultConfig())
	p := Thing2()
	Submit(h, p.Generate(12*3600))
	var vals []float64
	for tt := 10.0; tt <= 12*3600; tt += 10 {
		h.RunUntil(tt)
		vals = append(vals, 1/(h.LoadAvg()+1))
	}
	hurst, _, err := stats.HurstRS(vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	if hurst < 0.55 || hurst > 1.05 {
		t.Fatalf("Hurst of availability series = %v, want > 0.55 (LRD)", hurst)
	}
}

func TestProfilesOrder(t *testing.T) {
	ps := Profiles(100)
	want := []string{"thing2", "thing1", "conundrum", "beowulf", "gremlin", "kongo"}
	if len(ps) != len(want) {
		t.Fatalf("got %d profiles", len(ps))
	}
	for i, w := range want {
		if ps[i].Name != w {
			t.Fatalf("profile %d = %s, want %s", i, ps[i].Name, w)
		}
	}
}

// flashCrowd is a quiet host that four spinners saturate from 40% to 60% of
// the run (deadline night in a departmental lab): an abrupt regime change
// instead of the smooth load the six UCSD profiles produce.
func flashCrowd(duration float64) Profile {
	var fixtures []Fixture
	for i := 0; i < 4; i++ {
		fixtures = append(fixtures, Fixture{
			At:   duration*0.4 + float64(i)*5,
			Spec: simos.ProcSpec{Demand: math.Inf(1), WallLimit: duration * 0.2},
		})
	}
	return Profile{
		Name: "flashcrowd", Seed: 707,
		JobRate: 1.0 / 600, JobShape: jobShape, JobScale: 6, JobMax: 200,
		Fixtures: fixtures,
	}
}

func TestFlashCrowdRegimeChange(t *testing.T) {
	duration := 4000.0
	p := flashCrowd(duration)
	h := simos.New(simos.DefaultConfig())
	Submit(h, p.Generate(duration))
	var before, during, after float64
	for tt := 10.0; tt <= duration; tt += 10 {
		h.RunUntil(tt)
		avail := 1 / (h.LoadAvg() + 1)
		switch {
		case tt < duration*0.35:
			before = avail
		case tt > duration*0.45 && tt < duration*0.55:
			during = avail
		case tt > duration*0.8:
			after = avail
		}
	}
	if before < 0.8 || after < 0.8 {
		t.Fatalf("quiet phases not quiet: before %v after %v", before, after)
	}
	if during > 0.4 {
		t.Fatalf("crowd phase availability %v, want low", during)
	}
}

func TestForecasterAdaptsToFlashCrowd(t *testing.T) {
	// Measure how many steps the engine needs after the regime change to
	// get its forecast within 0.15 of the new level — the adaptation lag.
	duration := 4000.0
	p := flashCrowd(duration)
	h := simos.New(simos.DefaultConfig())
	Submit(h, p.Generate(duration))
	eng := forecast.NewDefaultEngine()
	crowdStart := duration * 0.4
	lag := -1
	steps := 0
	for tt := 10.0; tt <= duration*0.6; tt += 10 {
		h.RunUntil(tt)
		v := 1 / (h.LoadAvg() + 1)
		if tt > crowdStart+60 { // load average itself needs ~1 min to see it
			steps++
			if pred, ok := eng.Forecast(); ok && lag < 0 && pred.Value-v < 0.15 {
				lag = steps
			}
		}
		eng.Update(v)
	}
	if lag < 0 {
		t.Fatal("engine never adapted to the flash crowd")
	}
	if lag > 30 { // 5 minutes of 10s steps
		t.Fatalf("adaptation lag = %d steps, want <= 30", lag)
	}
}
