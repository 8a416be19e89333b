package experiments

import (
	"fmt"
	"math"

	"nwscpu/internal/core"
	"nwscpu/internal/forecast"
	"nwscpu/internal/sched"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// Ablation experiments for the design choices DESIGN.md calls out. Each
// returns a small report struct with a String method so the bench harness
// and the CLI can print them directly.

// MixtureAblation compares the dynamic NWS mixture against every individual
// forecaster on one host's hybrid measurement series.
type MixtureAblation struct {
	Host       string
	EngineMAE  float64
	BestMethod string
	BestMAE    float64
	Methods    []forecast.MethodError
}

// String summarizes the comparison.
func (a MixtureAblation) String() string {
	return fmt.Sprintf("mixture ablation on %s: engine MAE %.4f vs best single %q %.4f (of %d methods)",
		a.Host, a.EngineMAE, a.BestMethod, a.BestMAE, len(a.Methods))
}

// AblationMixture evaluates the mixture-vs-members claim on a host.
func (s *Suite) AblationMixture(host string) (MixtureAblation, error) {
	m, err := s.Short(host)
	if err != nil {
		return MixtureAblation{}, err
	}
	vals := m.Measurements[core.MethodHybrid].Values()
	res, report, err := forecast.EvaluateEngine(forecast.NewDefaultEngine, vals)
	if err != nil {
		return MixtureAblation{}, err
	}
	return MixtureAblation{
		Host:       host,
		EngineMAE:  res.MAE,
		BestMethod: report[0].Name,
		BestMAE:    report[0].MAE,
		Methods:    report,
	}, nil
}

// BiasAblation reports the hybrid sensor's measurement error with and
// without the probe bias correction on one host.
type BiasAblation struct {
	Host        string
	WithBias    float64
	WithoutBias float64
}

// String summarizes the comparison.
func (a BiasAblation) String() string {
	return fmt.Sprintf("bias ablation on %s: hybrid error %.1f%% with bias, %.1f%% without",
		a.Host, a.WithBias*100, a.WithoutBias*100)
}

// AblationBias runs the bias on/off comparison. The duration comes from the
// suite Config. It matters most on conundrum, where the bias is the whole
// trick.
func (s *Suite) AblationBias(host string) (BiasAblation, error) {
	with, err := s.hybridError(host, sensors.DefaultHybridConfig())
	if err != nil {
		return BiasAblation{}, err
	}
	cfg := sensors.DefaultHybridConfig()
	cfg.DisableBias = true
	without, err := s.hybridError(host, cfg)
	if err != nil {
		return BiasAblation{}, err
	}
	return BiasAblation{Host: host, WithBias: with, WithoutBias: without}, nil
}

// ProbeLenAblation reports the hybrid measurement error as a function of
// probe duration on one host. On kongo, longer probes contend long enough
// with the resident job to see its presence — the fix the paper sketches,
// bought with extra intrusiveness.
type ProbeLenAblation struct {
	Host   string
	Lens   []float64
	Errors []float64
}

// String summarizes the sweep.
func (a ProbeLenAblation) String() string {
	out := fmt.Sprintf("probe-length ablation on %s:", a.Host)
	for i, l := range a.Lens {
		out += fmt.Sprintf(" %.1fs->%.1f%%", l, a.Errors[i]*100)
	}
	return out
}

// AblationProbeLen sweeps probe durations on a host.
func (s *Suite) AblationProbeLen(host string, lens []float64) (ProbeLenAblation, error) {
	out := ProbeLenAblation{Host: host, Lens: lens}
	for _, l := range lens {
		cfg := sensors.DefaultHybridConfig()
		cfg.ProbeLen = l
		e, err := s.hybridError(host, cfg)
		if err != nil {
			return ProbeLenAblation{}, err
		}
		out.Errors = append(out.Errors, e)
	}
	return out, nil
}

// hybridError runs a fresh monitored simulation of host with the given
// hybrid configuration and returns the hybrid measurement error (Eq. 3).
func (s *Suite) hybridError(host string, hcfg sensors.HybridConfig) (float64, error) {
	p, err := profileFor(host, s.cfg.Duration)
	if err != nil {
		return 0, err
	}
	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, p.Generate(s.cfg.Duration+600))
	mcfg := scaleMonitorCfg(core.ShortTermConfig(), s.cfg.Duration)
	mcfg.Hybrid = hcfg
	m := core.NewMonitor(sensors.SimHost{H: h}, mcfg)
	if err := m.Run(s.cfg.Duration); err != nil {
		return 0, err
	}
	return core.MeasurementError(m.Measurements[core.MethodHybrid], m.Tests)
}

// AggregationAblation reports one-step prediction error versus aggregation
// level m on one host's load-average series.
type AggregationAblation struct {
	Host   string
	Levels []int
	Errors []float64
}

// String summarizes the sweep.
func (a AggregationAblation) String() string {
	out := fmt.Sprintf("aggregation ablation on %s:", a.Host)
	for i, m := range a.Levels {
		out += fmt.Sprintf(" m=%d->%.2f%%", m, a.Errors[i]*100)
	}
	return out
}

// AblationAggregation sweeps aggregation levels (m = 1 means the raw
// series).
func (s *Suite) AblationAggregation(host string, levels []int) (AggregationAblation, error) {
	m, err := s.Short(host)
	if err != nil {
		return AggregationAblation{}, err
	}
	out := AggregationAblation{Host: host, Levels: levels}
	meas := m.Measurements[core.MethodLoadAvg]
	for _, lvl := range levels {
		var e float64
		if lvl <= 1 {
			e, err = core.OneStepError(meas)
		} else {
			e, err = core.AggregatedOneStepError(meas, lvl)
		}
		if err != nil {
			return AggregationAblation{}, fmt.Errorf("experiments: aggregation m=%d: %w", lvl, err)
		}
		out.Errors = append(out.Errors, e)
	}
	return out, nil
}

// Eq2WeightAblation compares the three Equation 2 system-time weightings on
// a network-gateway-style host (jobs with a high system-time fraction, as
// the UCSD department's gateway once was — the paper's stated rationale for
// the user-fraction weighting).
type Eq2WeightAblation struct {
	UserFraction float64 // measurement error, paper's w = user fraction
	Full         float64 // w = 1
	None         float64 // w = 0
}

// String summarizes the comparison.
func (a Eq2WeightAblation) String() string {
	return fmt.Sprintf("Eq.2 weighting ablation (gateway host): w=userFrac %.1f%%, w=1 %.1f%%, w=0 %.1f%%",
		a.UserFraction*100, a.Full*100, a.None*100)
}

// AblationEq2Weight measures the three weightings against test processes on
// a host whose jobs spend most of their time in the kernel.
func (s *Suite) AblationEq2Weight() (Eq2WeightAblation, error) {
	// Light user-level load plus a non-preemptible kernel interrupt load
	// with a ~35% duty cycle — the departmental-gateway situation the paper
	// describes.
	gateway := workload.Gremlin()
	gateway.Name = "gateway"
	gateway.Fixtures = append(gateway.Fixtures, workload.Fixture{
		At: 0,
		Spec: simos.ProcSpec{
			Kernel: true, SysFrac: 1,
			Demand: math.Inf(1), WallLimit: s.cfg.Duration + 601,
			BurstCPU: 0.2, BurstSleep: 0.37,
		},
	})

	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, gateway.Generate(s.cfg.Duration+600))
	sh := sensors.SimHost{H: h}
	ss := []*sensors.VmstatSensor{
		sensors.NewVmstatSensorWeight(sh, 0, sensors.WeightUserFraction),
		sensors.NewVmstatSensorWeight(sh, 0, sensors.WeightFull),
		sensors.NewVmstatSensorWeight(sh, 0, sensors.WeightNone),
	}
	sums := make([]float64, 3)
	lasts := make([]float64, 3)
	tests := 0
	testEvery := s.cfg.Duration / 40
	if testEvery < 30 {
		testEvery = 30
	}
	epoch := 10.0
	nextTest := testEvery
	for epoch <= s.cfg.Duration {
		h.RunUntil(epoch)
		for i, sensor := range ss {
			lasts[i] = sensor.Measure()
		}
		if epoch >= nextTest {
			truth := sensors.RunTest(sh, 10)
			for i := range ss {
				sums[i] += abs(lasts[i] - truth)
			}
			tests++
			nextTest += testEvery
		}
		epoch = h.Now() + 10
	}
	if tests == 0 {
		return Eq2WeightAblation{}, fmt.Errorf("experiments: gateway run too short")
	}
	return Eq2WeightAblation{
		UserFraction: sums[0] / float64(tests),
		Full:         sums[1] / float64(tests),
		None:         sums[2] / float64(tests),
	}, nil
}

// SelectWindowAblation reports the engine's one-step error as a function of
// the selection window (0 = cumulative, the rest recent-window sizes) on one
// host's hybrid series.
type SelectWindowAblation struct {
	Host    string
	Windows []int
	Errors  []float64
}

// String summarizes the sweep.
func (a SelectWindowAblation) String() string {
	out := fmt.Sprintf("selection-window ablation on %s:", a.Host)
	for i, w := range a.Windows {
		label := fmt.Sprintf("w=%d", w)
		if w == 0 {
			label = "cumulative"
		}
		out += fmt.Sprintf(" %s->%.3f%%", label, a.Errors[i]*100)
	}
	return out
}

// AblationSelectWindow sweeps the engine's selection window.
func (s *Suite) AblationSelectWindow(host string, windows []int) (SelectWindowAblation, error) {
	m, err := s.Short(host)
	if err != nil {
		return SelectWindowAblation{}, err
	}
	vals := m.Measurements[core.MethodHybrid].Values()
	out := SelectWindowAblation{Host: host, Windows: windows}
	for _, w := range windows {
		win := w
		res, _, err := forecast.EvaluateEngine(func() *forecast.Engine {
			return forecast.NewWindowedEngine(forecast.ByMAE, win, forecast.DefaultBank()...)
		}, vals)
		if err != nil {
			return SelectWindowAblation{}, err
		}
		out.Errors = append(out.Errors, res.MAE)
	}
	return out, nil
}

// PartitionAblation compares forecast-proportional data-parallel
// partitioning with the equal split (the AppLeS use case).
type PartitionAblation struct {
	ForecastMakespan float64
	EqualMakespan    float64
}

// String summarizes the comparison.
func (a PartitionAblation) String() string {
	return fmt.Sprintf("partition ablation: forecast-proportional makespan %.0fs vs equal split %.0fs (gain %.2fx)",
		a.ForecastMakespan, a.EqualMakespan, a.EqualMakespan/a.ForecastMakespan)
}

// AblationPartition runs the partitioning comparison over the six paper
// hosts with a divisible job of totalWork CPU-seconds.
func AblationPartition(totalWork, warmup float64, seed int64) PartitionAblation {
	horizon := warmup + 20*totalWork
	run := func(equal bool) float64 {
		c := sched.NewCluster(workload.Profiles(horizon), horizon)
		c.Warmup(warmup, 10)
		return c.PartitionExperiment(totalWork, sched.PolicyForecast, equal, seed)
	}
	return PartitionAblation{ForecastMakespan: run(false), EqualMakespan: run(true)}
}

// SchedulerAblation compares scheduling policies on a small grid.
type SchedulerAblation struct {
	Results []sched.Result
}

// DynamicAblation compares static list placement with self-scheduling
// (dynamic work-queue) dispatch under the forecast policy.
type DynamicAblation struct {
	Static  sched.Result
	Dynamic sched.DynamicResult
}

// String summarizes the comparison.
func (a DynamicAblation) String() string {
	return fmt.Sprintf("dispatch ablation: static makespan %.0fs vs self-scheduling %.0fs (dispatches %v)",
		a.Static.Makespan, a.Dynamic.Makespan, a.Dynamic.Dispatches)
}

// AblationDynamic runs the static-vs-dynamic dispatch comparison over the
// six paper hosts.
func AblationDynamic(nTasks int, demand, warmup float64, seed int64) DynamicAblation {
	horizon := warmup + 20*float64(nTasks)*demand
	profiles := workload.Profiles(horizon)
	tasks := sched.MakeTasks(nTasks, demand)
	return DynamicAblation{
		Static:  sched.Experiment(profiles, tasks, sched.PolicyForecast, warmup, seed),
		Dynamic: sched.DynamicExperiment(profiles, tasks, sched.PolicyForecast, warmup, seed),
	}
}

// String summarizes the comparison.
func (a SchedulerAblation) String() string {
	out := "scheduler ablation:"
	for _, r := range a.Results {
		out += fmt.Sprintf(" %s makespan %.0fs;", r.Policy, r.Makespan)
	}
	return out
}

// AblationScheduler runs the three policies over a grid of the six paper
// hosts with the given task load.
func AblationScheduler(nTasks int, demand, warmup float64, seed int64) SchedulerAblation {
	var out SchedulerAblation
	// Profiles(duration) bakes fixture wall limits; use the same horizon
	// sched.Experiment derives (warm-up plus a generous execution window).
	horizon := warmup + 20*float64(nTasks)*demand
	profiles := workload.Profiles(horizon)
	for _, p := range []sched.Policy{sched.PolicyForecast, sched.PolicyLoadAvg, sched.PolicyRandom} {
		out.Results = append(out.Results, sched.Experiment(profiles, sched.MakeTasks(nTasks, demand), p, warmup, seed))
	}
	return out
}
