// Package sensors implements the paper's three CPU-availability measurement
// methods against an abstract Host: the Unix load-average method
// (Equation 1), the vmstat method (Equation 2), and the NWS hybrid sensor
// that arbitrates between them with a short full-priority probe process and
// corrects their bias. It also provides the ground-truth "test process"
// runner used to compute measurement error (Equation 3).
//
// Hosts come in two flavors: the deterministic simulator adapter in this
// package (SimHost) and the live-Linux /proc adapter in package prochost.
package sensors

import (
	"math"

	"nwscpu/internal/simos"
)

// CPUTimes is a snapshot of cumulative CPU-time accounting, in seconds.
// Nice is kept separate so tests can see it, but the vmstat sensor folds it
// into user time exactly as the classic utility does — which is what blinds
// it to nice-19 background load.
type CPUTimes struct {
	User  float64
	Nice  float64
	Sys   float64
	Idle  float64
	Total float64
}

// Host is the machine being measured. Implementations: SimHost (simulator)
// and prochost.Host (live Linux).
type Host interface {
	// Now returns the host clock in seconds.
	Now() float64
	// LoadAvg returns the 1-minute load average, as uptime reports.
	LoadAvg() float64
	// CPUTimes returns cumulative CPU accounting since boot.
	CPUTimes() CPUTimes
	// RunQueue returns the instantaneous number of runnable processes,
	// excluding the caller.
	RunQueue() int
	// RunSpin runs a full-priority CPU-bound process for the given wall
	// time and returns the fraction of the CPU it obtained. The call blocks
	// (and, on a simulated host, advances virtual time).
	RunSpin(wall float64) float64
	// NumCPUs returns the host's processor count (1 on the paper's
	// uniprocessor testbed).
	NumCPUs() int
}

// SimHost adapts a *simos.Host to the Host interface.
type SimHost struct {
	H *simos.Host
}

// Now implements Host.
func (s SimHost) Now() float64 { return s.H.Now() }

// LoadAvg implements Host.
func (s SimHost) LoadAvg() float64 { return s.H.LoadAvg() }

// CPUTimes implements Host.
func (s SimHost) CPUTimes() CPUTimes {
	c := s.H.Counters()
	return CPUTimes{User: c.User, Nice: c.Nice, Sys: c.Sys, Idle: c.Idle, Total: c.Total}
}

// RunQueue implements Host.
func (s SimHost) RunQueue() int { return s.H.RunQueue() }

// NumCPUs implements Host.
func (s SimHost) NumCPUs() int { return s.H.NumCPUs() }

// RunSpin implements Host.
func (s SimHost) RunSpin(wall float64) float64 {
	return s.H.RunProcess(simos.ProcSpec{
		Demand:    math.Inf(1),
		WallLimit: wall,
	})
}

// clamp01 confines an availability estimate to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Sensor measures the current CPU availability of a host as a fraction in
// [0, 1].
type Sensor interface {
	// Name identifies the method in reports ("load_average", "vmstat",
	// "nws_hybrid").
	Name() string
	// Measure produces the next availability measurement. Sensors are
	// stateful (smoothing, counter deltas, probe bias) and must be called
	// at the cadence they were configured for.
	Measure() float64
}

// LoadAvgSensor implements Equation 1:
//
//	avail = 1 / (loadavg + 1)
type LoadAvgSensor struct {
	host Host
}

// NewLoadAvgSensor returns the load-average sensor for h.
func NewLoadAvgSensor(h Host) *LoadAvgSensor { return &LoadAvgSensor{host: h} }

// Name implements Sensor.
func (s *LoadAvgSensor) Name() string { return "load_average" }

// Measure implements Sensor.
func (s *LoadAvgSensor) Measure() float64 {
	return clamp01(1 / (s.host.LoadAvg() + 1))
}

// VmstatSensor implements Equation 2:
//
//	avail = idle + user/(rq+1) + w*sys/(rq+1)
//
// where user/sys/idle are the fractions of CPU time over the interval since
// the previous measurement (nice time folded into user, as vmstat displays
// it), rq is an exponentially smoothed run-queue length, and the weight w is
// the user fraction — kernels busy with interrupt work (high system time,
// low user time) do not share system time fairly with new processes.
type VmstatSensor struct {
	host    Host
	prev    CPUTimes
	rq      float64
	rqGain  float64
	weight  SysWeight
	started bool
}

// SysWeight selects how Equation 2 weights kernel (system) time when
// crediting a new process's fair share.
type SysWeight int

const (
	// WeightUserFraction is the paper's choice: w equals the user-time
	// fraction, reflecting that kernels busy with interrupt work (network
	// gateways) do not share system time fairly.
	WeightUserFraction SysWeight = iota
	// WeightFull counts the full fair share of system time (w = 1).
	WeightFull
	// WeightNone ignores system time entirely (w = 0).
	WeightNone
)

// NewVmstatSensor returns the vmstat sensor for h with the paper's
// user-fraction system-time weighting. rqGain is the smoothing gain for the
// run-queue average (0.25 default when 0 is passed).
func NewVmstatSensor(h Host, rqGain float64) *VmstatSensor {
	return NewVmstatSensorWeight(h, rqGain, WeightUserFraction)
}

// NewVmstatSensorWeight is NewVmstatSensor with an explicit system-time
// weighting mode, for the ablation studies of the Equation 2 design choice.
func NewVmstatSensorWeight(h Host, rqGain float64, weight SysWeight) *VmstatSensor {
	if rqGain <= 0 || rqGain > 1 {
		rqGain = 0.25
	}
	return &VmstatSensor{host: h, rqGain: rqGain, weight: weight}
}

// Name implements Sensor.
func (s *VmstatSensor) Name() string { return "vmstat" }

// Measure implements Sensor.
func (s *VmstatSensor) Measure() float64 {
	cur := s.host.CPUTimes()
	rqNow := float64(s.host.RunQueue())
	if !s.started {
		s.started = true
		s.prev = cur
		s.rq = rqNow
		// No interval yet: report from the run queue alone, like a first
		// vmstat line.
		return clamp01(1 / (rqNow + 1))
	}
	dTotal := cur.Total - s.prev.Total
	if dTotal <= 0 {
		// Clock did not advance; repeat previous smoothing state.
		return clamp01(1 / (s.rq + 1))
	}
	user := (cur.User - s.prev.User + cur.Nice - s.prev.Nice) / dTotal
	sys := (cur.Sys - s.prev.Sys) / dTotal
	idle := (cur.Idle - s.prev.Idle) / dTotal
	s.prev = cur
	s.rq += s.rqGain * (rqNow - s.rq)

	var w float64
	switch s.weight {
	case WeightFull:
		w = 1
	case WeightNone:
		w = 0
	default:
		w = user // fairly shared system time tracks the user fraction
	}
	avail := idle + user/(s.rq+1) + w*sys/(s.rq+1)
	return clamp01(avail)
}

// SMPLoadAvgSensor generalizes Equation 1 to a shared-memory multiprocessor
// (the paper's stated future work): with N CPUs and load average L, a newly
// created full-priority process expects
//
//	avail = min(1, N / (L + 1))
//
// of one processor. On N = 1 this reduces exactly to Equation 1.
type SMPLoadAvgSensor struct {
	host Host
}

// NewSMPLoadAvgSensor returns the multiprocessor-corrected load-average
// sensor for h.
func NewSMPLoadAvgSensor(h Host) *SMPLoadAvgSensor { return &SMPLoadAvgSensor{host: h} }

// Name implements Sensor.
func (s *SMPLoadAvgSensor) Name() string { return "load_average_smp" }

// Measure implements Sensor.
func (s *SMPLoadAvgSensor) Measure() float64 {
	n := float64(s.host.NumCPUs())
	if n < 1 {
		n = 1
	}
	return clamp01(n / (s.host.LoadAvg() + 1))
}

var _ Sensor = (*SMPLoadAvgSensor)(nil)

// RunTest executes the paper's ground-truth test process: a full-priority
// CPU-bound process spinning for the given wall time, reporting the fraction
// of the CPU it obtained (getrusage over wall-clock). The paper uses 10 s
// for the short-term experiments and 5 minutes for the medium-term ones.
func RunTest(h Host, wall float64) float64 {
	return h.RunSpin(wall)
}
