// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated testbed: the six host profiles are run under
// their workloads while the NWS monitor measures them, and each experiment
// reduces the recorded series with the analyses of packages core and stats.
//
// A Suite caches the expensive monitored runs so that all tables derived
// from the same 24-hour traces (Tables 1, 2, 3, 5 and the variance half of
// Table 4) share one simulation per host, exactly as the paper derives its
// tables from one set of traces.
package experiments

import (
	"fmt"
	"sync"

	"nwscpu/internal/core"
	"nwscpu/internal/sensors"
	"nwscpu/internal/series"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// Config scales the experiments. The paper's dimensions are the defaults;
// tests shrink them.
type Config struct {
	// Duration of the monitored runs in seconds (paper: 24 hours).
	Duration float64
	// WeekDuration of the unmonitored load-average traces used for Hurst
	// estimation (paper: one week).
	WeekDuration float64
}

// QuickConfig returns a configuration small enough for unit tests while
// still exercising every code path (tests and probes included).
func QuickConfig() Config {
	return Config{Duration: 4000, WeekDuration: 20000}
}

// HostNames lists the six hosts in the paper's table order.
var HostNames = []string{"thing2", "thing1", "conundrum", "beowulf", "gremlin", "kongo"}

// Suite owns the cached simulation runs for one Config.
type Suite struct {
	cfg Config

	mu     sync.Mutex
	short  map[string]*core.Monitor  // 10 s tests every 10 min
	medium map[string]*core.Monitor  // 5 min tests every hour
	week   map[string]*series.Series // load-average availability, 1 week
}

// NewSuite returns an empty suite for cfg.
func NewSuite(cfg Config) *Suite {
	if cfg.Duration <= 0 || cfg.WeekDuration <= 0 {
		panic("experiments: Config durations must be positive")
	}
	return &Suite{
		cfg:    cfg,
		short:  make(map[string]*core.Monitor),
		medium: make(map[string]*core.Monitor),
		week:   make(map[string]*series.Series),
	}
}

// profileFor returns the workload profile for a host name over a duration.
func profileFor(name string, duration float64) (workload.Profile, error) {
	for _, p := range workload.Profiles(duration) {
		if p.Name == name {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("experiments: unknown host %q", name)
}

// scaleMonitorCfg shrinks test cadence for very short runs so that even
// QuickConfig runs include several test processes.
func scaleMonitorCfg(base core.MonitorConfig, duration float64) core.MonitorConfig {
	for duration < 4*base.TestPeriod && base.TestPeriod > 60 && base.TestPeriod/2 >= 4*base.TestLen {
		base.TestPeriod /= 2
	}
	return base
}

// Short returns (running if needed) the short-term monitored run of a host.
func (s *Suite) Short(host string) (*core.Monitor, error) {
	return s.monitored(host, s.short, core.ShortTermConfig())
}

// Medium returns the medium-term monitored run (5-minute test processes).
func (s *Suite) Medium(host string) (*core.Monitor, error) {
	return s.monitored(host, s.medium, core.MediumTermConfig())
}

func (s *Suite) monitored(host string, cache map[string]*core.Monitor, mcfg core.MonitorConfig) (*core.Monitor, error) {
	s.mu.Lock()
	if m, ok := cache[host]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()

	p, err := profileFor(host, s.cfg.Duration)
	if err != nil {
		return nil, err
	}
	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, p.Generate(s.cfg.Duration+600))
	m := core.NewMonitor(sensors.SimHost{H: h}, scaleMonitorCfg(mcfg, s.cfg.Duration))
	if err := m.Run(s.cfg.Duration); err != nil {
		return nil, fmt.Errorf("experiments: monitoring %s: %w", host, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := cache[host]; ok { // another goroutine won the race
		return prev, nil
	}
	cache[host] = m
	return m, nil
}

// Week returns the one-week load-average availability trace of a host,
// sampled every 10 seconds with no probes or test processes (the traces
// behind Figure 3 and Table 4's Hurst estimates).
func (s *Suite) Week(host string) (*series.Series, error) {
	s.mu.Lock()
	if w, ok := s.week[host]; ok {
		s.mu.Unlock()
		return w, nil
	}
	s.mu.Unlock()

	p, err := profileFor(host, s.cfg.WeekDuration)
	if err != nil {
		return nil, err
	}
	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, p.Generate(s.cfg.WeekDuration+600))
	sh := sensors.SimHost{H: h}
	la := sensors.NewLoadAvgSensor(sh)
	trace := series.New(host+"/week/load_average", "fraction")
	for t := 10.0; t <= s.cfg.WeekDuration; t += 10 {
		h.RunUntil(t)
		if err := trace.Append(t, la.Measure()); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.week[host]; ok {
		return prev, nil
	}
	s.week[host] = trace
	return trace, nil
}
