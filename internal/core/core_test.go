package core

import (
	"math"
	"testing"
	"time"

	"nwscpu/internal/sensors"
	"nwscpu/internal/series"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

func simhost() (sensors.SimHost, *simos.Host) {
	h := simos.New(simos.DefaultConfig())
	return sensors.SimHost{H: h}, h
}

func TestNewMonitorValidation(t *testing.T) {
	sh, _ := simhost()
	for i, cfg := range []MonitorConfig{
		{},
		{MeasurePeriod: 10, TestPeriod: 100}, // TestLen missing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			NewMonitor(sh, cfg)
		}()
	}
	// Zero hybrid config must be defaulted, not rejected.
	m := NewMonitor(sh, MonitorConfig{MeasurePeriod: 10})
	if m.cfg.Hybrid.ProbeEvery != 6 {
		t.Fatalf("hybrid config not defaulted: %+v", m.cfg.Hybrid)
	}
}

func TestMonitorRecordsAllSeries(t *testing.T) {
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 4000})
	m := NewMonitor(sh, ShortTermConfig())
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	for _, name := range Methods {
		s := m.Measurements[name]
		// ~130 epochs minus slots consumed by probes and tests.
		if s.Len() < 100 {
			t.Fatalf("%s series too short: %d", name, s.Len())
		}
		for _, p := range s.Points {
			if p.V < 0 || p.V > 1 {
				t.Fatalf("%s out-of-range value %v", name, p.V)
			}
		}
	}
	if m.Tests.Len() != 2 { // tests at ~600 and ~1200
		t.Fatalf("test count = %d, want 2", m.Tests.Len())
	}
}

func TestMonitorTestObservationsSane(t *testing.T) {
	sh, h := simhost()
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 4000})
	m := NewMonitor(sh, ShortTermConfig())
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Tests.Points {
		if p.V < 0.3 || p.V > 0.8 {
			t.Fatalf("test against one spinner = %v, want ~0.5-0.7", p.V)
		}
	}
}

func TestMeasurementErrorIdleHost(t *testing.T) {
	sh, _ := simhost()
	m := NewMonitor(sh, ShortTermConfig())
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	for _, name := range Methods {
		e, err := MeasurementError(m.Measurements[name], m.Tests)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e > 0.02 {
			t.Fatalf("%s measurement error on idle host = %v, want ~0", name, e)
		}
	}
}

func TestMeasurementErrorConundrumShape(t *testing.T) {
	// Passive methods badly mismeasure a nice-19 soaker; the hybrid does not.
	sh, h := simhost()
	workload.Submit(h, workload.Conundrum(5000).Generate(5000))
	m := NewMonitor(sh, ShortTermConfig())
	if err := m.Run(4000); err != nil {
		t.Fatal(err)
	}
	la, err := MeasurementError(m.Measurements[MethodLoadAvg], m.Tests)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := MeasurementError(m.Measurements[MethodHybrid], m.Tests)
	if err != nil {
		t.Fatal(err)
	}
	if la < 0.2 {
		t.Fatalf("load-average error on conundrum = %v, want large", la)
	}
	if hy > la/2 {
		t.Fatalf("hybrid error %v not much smaller than load average %v", hy, la)
	}
}

func TestMeasurementErrorNoData(t *testing.T) {
	s := series.FromValues("m", 0, 10, []float64{1, 1})
	empty := series.New("t", "")
	if _, err := MeasurementError(s, empty); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	// Tests before any measurement also yield no data.
	early := series.New("t", "")
	if err := early.Append(-5, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasurementError(s, early); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestOneStepErrorSmooth(t *testing.T) {
	// A slowly varying series must have small one-step error.
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = 0.5 + 0.3*math.Sin(float64(i)/100)
	}
	s := series.FromValues("m", 0, 10, vals)
	e, err := OneStepError(s)
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.01 {
		t.Fatalf("one-step error on smooth series = %v", e)
	}
}

func TestOneStepErrorEmpty(t *testing.T) {
	if _, err := OneStepError(series.New("x", "")); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestTrueForecastErrorPerfectWorld(t *testing.T) {
	// Measurements and tests agree exactly and the series is constant: the
	// true forecasting error must be ~0.
	meas := series.FromValues("m", 0, 10, constant(0.7, 100))
	tests := series.New("t", "")
	for _, tt := range []float64{300, 600, 900} {
		if err := tests.Append(tt, 0.7); err != nil {
			t.Fatal(err)
		}
	}
	e, err := TrueForecastError(meas, tests)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Fatalf("true forecast error = %v, want 0", e)
	}
}

func TestTrueForecastErrorSkipsUncovered(t *testing.T) {
	meas := series.FromValues("m", 100, 10, constant(0.5, 10))
	tests := series.New("t", "")
	if err := tests.Append(50, 0.5); err != nil { // before any measurement
		t.Fatal(err)
	}
	if _, err := TrueForecastError(meas, tests); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestAggregatedOneStepError(t *testing.T) {
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = 0.5 + 0.2*math.Sin(float64(i)/300)
	}
	s := series.FromValues("m", 0, 10, vals)
	e, err := AggregatedOneStepError(s, AggregateBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.05 {
		t.Fatalf("aggregated one-step error = %v", e)
	}
	if _, err := AggregatedOneStepError(series.FromValues("m", 0, 10, constant(1, 30)), 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := AggregatedOneStepError(series.FromValues("m", 0, 10, constant(1, 30)), 31); err != ErrNoData {
		t.Fatal("too-large m should yield ErrNoData")
	}
}

func TestAggregatedTrueForecastError(t *testing.T) {
	meas := series.FromValues("m", 0, 10, constant(0.6, 1000))
	tests := series.New("t", "")
	for _, tt := range []float64{3600, 7200} {
		if err := tests.Append(tt, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	e, err := AggregatedTrueForecastError(meas, tests, AggregateBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Fatalf("aggregated true forecast error = %v, want 0", e)
	}
}

func TestVarianceComparison(t *testing.T) {
	// i.i.d.-style wiggle: aggregation must reduce variance.
	vals := make([]float64, 3000)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 0.4
		} else {
			vals[i] = 0.6
		}
	}
	s := series.FromValues("m", 0, 10, vals)
	orig, agg, err := VarianceComparison(s, 30)
	if err != nil {
		t.Fatal(err)
	}
	if agg >= orig {
		t.Fatalf("aggregated variance %v >= original %v", agg, orig)
	}
	if _, _, err := VarianceComparison(series.FromValues("m", 0, 1, constant(1, 3)), 30); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestMediumTermMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sh, h := simhost()
	workload.Submit(h, workload.Gremlin().Generate(4*3600+100))
	m := NewMonitor(sh, MediumTermConfig())
	if err := m.Run(4 * 3600); err != nil {
		t.Fatal(err)
	}
	if m.Tests.Len() != 4 { // hourly 5-minute tests at 1h, 2h, 3h, 4h
		t.Fatalf("medium-term test count = %d, want 4", m.Tests.Len())
	}
	e, err := AggregatedTrueForecastError(m.Measurements[MethodLoadAvg], m.Tests, AggregateBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.3 {
		t.Fatalf("aggregated true forecast error on gremlin = %v, implausibly large", e)
	}
}

func constant(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// wallHost is a minimal live-style Host whose clock is wall time; it lets
// the test verify that Monitor.Run paces itself with sleeps rather than
// spinning.
type wallHost struct {
	start time.Time
	spins int
}

func (w *wallHost) Now() float64     { return time.Since(w.start).Seconds() }
func (w *wallHost) LoadAvg() float64 { return 0.5 }
func (w *wallHost) CPUTimes() sensors.CPUTimes {
	t := w.Now()
	return sensors.CPUTimes{User: t / 2, Idle: t / 2, Total: t}
}
func (w *wallHost) RunQueue() int { return 1 }
func (w *wallHost) NumCPUs() int  { return 1 }
func (w *wallHost) RunSpin(wall float64) float64 {
	w.spins++
	time.Sleep(time.Duration(wall * float64(time.Second)))
	return 0.5
}

func TestMonitorPacesLiveHost(t *testing.T) {
	h := &wallHost{start: time.Now()}
	m := NewMonitor(h, MonitorConfig{
		MeasurePeriod: 0.05,
		Hybrid:        sensors.HybridConfig{ProbeEvery: 100, ProbeLen: 0.01},
	})
	start := time.Now()
	if err := m.Run(0.3); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 250*time.Millisecond {
		t.Fatalf("live run finished in %v: the monitor did not pace itself", elapsed)
	}
	n := m.Measurements[MethodLoadAvg].Len()
	// ~6 epochs at 50 ms over 300 ms; allow scheduling slop.
	if n < 3 || n > 8 {
		t.Fatalf("measurements = %d, want ~6 (no spinning)", n)
	}
}
