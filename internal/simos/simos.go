// Package simos simulates a time-shared Unix host at scheduling-quantum
// resolution. It stands in for the UCSD workstations and servers of the HPDC
// 1999 study: the phenomena the paper reports — Equation 1/2 measurement
// error, the invisibility of nice-19 background jobs to load average and
// vmstat (conundrum), the eviction of long-running full-priority jobs by
// fresh short probes (kongo), and the slow decay of availability — all arise
// mechanically from the 4.3BSD scheduler model implemented here:
//
//   - Each quantum (default 10 ms) the runnable process with the lowest
//     priority number runs; priority = PCpu/4 + 4*nice, so recent CPU usage
//     degrades priority and freshly started processes preempt hogs.
//   - Once per virtual second every process's PCpu estimator decays by
//     (2*load)/(2*load + 1), the 4.3BSD digital decay filter.
//   - Every 5 virtual seconds the kernel samples the run-queue length into
//     the 1-minute exponentially smoothed load average that uptime reports.
//   - Per-quantum accounting feeds the user/nice/system/idle counters that
//     vmstat reports.
//
// The simulator is single-goroutine and fully deterministic: all randomness
// lives in the workload that callers submit.
package simos

import (
	"fmt"
	"math"
	"sort"
)

// Config holds the tunable constants of the simulated kernel. The zero value
// is not valid; use DefaultConfig.
type Config struct {
	// Tick is the scheduling quantum in seconds.
	Tick float64
	// DecayPeriod is how often (seconds) the PCpu decay filter runs.
	DecayPeriod float64
	// LoadSamplePeriod is how often (seconds) the load average samples the
	// run queue.
	LoadSamplePeriod float64
	// LoadTimeConstant is the smoothing time constant of the load average
	// in seconds (60 for the 1-minute load average).
	LoadTimeConstant float64
	// NiceWeight is the priority penalty per unit of nice. 4.3BSD used 2;
	// SVR4-era and modern kernels weight nice more heavily so that nice-19
	// background jobs effectively never preempt full-priority work, which
	// matches the behaviour the paper observed on conundrum. We use 4.
	NiceWeight float64
	// PCpuMax caps the per-process CPU usage estimator (255 in 4.3BSD).
	PCpuMax float64
	// NumCPUs is the number of processors (default 1). On a shared-memory
	// multiprocessor — the paper's stated future work — up to NumCPUs
	// runnable processes execute each quantum, one CPU per process, and the
	// accounting counters advance NumCPUs seconds of CPU time per second of
	// wall time.
	NumCPUs int
	// PriBucket quantizes priorities into run queues PriBucket points wide,
	// as the 4.3BSD dispatcher does (it keeps 32 run queues of 4 priority
	// points each; coupled with round-robin inside a queue this lets
	// processes of similar recent CPU usage share the processor instead of
	// strictly dominating one another). Zero or negative disables
	// quantization.
	PriBucket float64
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Tick:             0.01,
		DecayPeriod:      1.0,
		LoadSamplePeriod: 5.0,
		LoadTimeConstant: 60.0,
		NiceWeight:       4.0,
		PCpuMax:          255.0,
		PriBucket:        8.0,
		NumCPUs:          1,
	}
}

// PID identifies a process within one Host.
type PID int

// ProcSpec describes a process to run on the simulated host.
type ProcSpec struct {
	// Nice is the Unix nice value, 0 (full priority) to 19 (background).
	Nice int
	// Demand is the total CPU seconds the process needs before exiting.
	// Use math.Inf(1) for a process that runs until killed or until
	// WallLimit expires.
	Demand float64
	// WallLimit, if positive, makes the process exit after that much wall
	// time regardless of CPU obtained (this is how the NWS probe and the
	// test process behave: they spin for a fixed wall-clock interval).
	WallLimit float64
	// SysFrac is the fraction of this process's CPU time accounted as
	// system time rather than user time (e.g. a network daemon doing kernel
	// work on behalf of packets). Must be in [0, 1].
	SysFrac float64
	// Kernel marks non-preemptible kernel work (interrupt handling on a
	// network gateway): it always runs ahead of every user process,
	// regardless of priority decay. Combine with SysFrac: 1 so the
	// accounting shows it as system time, and with a Burst pattern so it
	// consumes a duty-cycle fraction rather than the whole CPU.
	Kernel bool
	// BurstCPU and BurstSleep, when BurstCPU > 0, make the process
	// alternate between computing BurstCPU CPU-seconds and sleeping
	// BurstSleep wall-seconds — the think-time pattern of an interactive
	// user.
	BurstCPU   float64
	BurstSleep float64
}

type process struct {
	pid      PID
	spec     ProcSpec
	pcpu     float64 // decaying CPU usage estimator
	cpuTime  float64 // CPU seconds obtained so far
	start    float64 // wall time of creation
	left     float64 // remaining CPU demand
	wake     float64 // sleeping until this time (burst pattern)
	burstCPU float64 // CPU used in the current burst
	lastRun  int64   // tick sequence when last scheduled (round-robin tiebreak)
	done     bool
}

func (p *process) runnable(now float64) bool {
	return !p.done && now >= p.wake
}

// Counters is the cumulative CPU-time accounting of the host, in seconds.
// Nice holds CPU time consumed by processes with Nice > 0 (classic vmstat
// folds this into user time; the sensors do the same, but tests want it
// separately). Cycles a hypervisor steals are charged to the guest's
// counters in full (see SetSteal).
type Counters struct {
	User  float64
	Nice  float64
	Sys   float64
	Idle  float64
	Total float64
}

type exitRec struct {
	fraction float64
	at       float64
}

type arrival struct {
	t    float64
	spec ProcSpec
}

// Host is one simulated time-shared machine. It is not safe for concurrent
// use — drive it from a single goroutine (experiments run hosts in parallel
// by giving each goroutine its own Host).
type Host struct {
	cfg     Config
	tickNum int64 // current tick; Now() = tickNum * cfg.Tick
	nextPID PID
	procs   []*process // live processes
	pending []arrival  // future arrivals, kept sorted by t
	loadavg float64
	ctr     Counters

	nextDecayTick int64
	nextLoadTick  int64
	decayTicks    int64
	loadTicks     int64

	steal func(t float64) float64

	exits   map[PID]exitRec // results of exited processes
	running []*process      // scratch: processes dispatched this quantum
}

// New creates a Host with the given configuration. It panics on a
// non-positive Tick or on period constants smaller than the tick.
func New(cfg Config) *Host {
	if cfg.Tick <= 0 {
		panic("simos: Tick must be positive")
	}
	if cfg.DecayPeriod < cfg.Tick || cfg.LoadSamplePeriod < cfg.Tick {
		panic("simos: decay and load periods must be >= Tick")
	}
	if cfg.LoadTimeConstant <= 0 {
		panic("simos: LoadTimeConstant must be positive")
	}
	if cfg.NumCPUs == 0 {
		cfg.NumCPUs = 1
	}
	if cfg.NumCPUs < 0 {
		panic("simos: NumCPUs must be positive")
	}
	h := &Host{cfg: cfg, exits: make(map[PID]exitRec)}
	h.decayTicks = int64(math.Round(cfg.DecayPeriod / cfg.Tick))
	h.loadTicks = int64(math.Round(cfg.LoadSamplePeriod / cfg.Tick))
	h.nextDecayTick = h.decayTicks
	h.nextLoadTick = h.loadTicks
	return h
}

// Now returns the current virtual time in seconds.
func (h *Host) Now() float64 { return float64(h.tickNum) * h.cfg.Tick }

// LoadAvg returns the kernel's 1-minute load average, as uptime would
// report it.
func (h *Host) LoadAvg() float64 { return h.loadavg }

// NumCPUs returns the number of processors of this host.
func (h *Host) NumCPUs() int { return h.cfg.NumCPUs }

// Counters returns the cumulative CPU accounting.
func (h *Host) Counters() Counters { return h.ctr }

// SetSteal installs a hypervisor steal schedule: fn(t) is the fraction of
// each scheduling quantum at virtual time t that the hypervisor takes from
// this guest, clamped to [0, 1]. While a quantum is stolen the dispatched
// process makes only (1-steal) of a tick of progress, but the guest's
// accounting — loadavg, user/nice/system counters — charges the full
// quantum, because a guest kernel without a paravirtual steal clock cannot
// tell the difference ("Platform-Agnostic Steal-Time Measurement in a Guest
// Operating System"). Passive sensors are therefore blind to steal; only an
// active probe, which observes its own wall-clock progress, sees it. A nil
// fn (the default) disables steal and reproduces the legacy schedule
// bit-for-bit.
func (h *Host) SetSteal(fn func(t float64) float64) { h.steal = fn }

// RunQueue returns the instantaneous number of runnable processes.
func (h *Host) RunQueue() int {
	n := 0
	now := h.Now()
	for _, p := range h.procs {
		if p.runnable(now) {
			n++
		}
	}
	return n
}

// Spawn creates a process now and returns its PID.
func (h *Host) Spawn(spec ProcSpec) PID {
	return h.spawnAt(h.Now(), spec)
}

func (h *Host) spawnAt(now float64, spec ProcSpec) PID {
	if spec.SysFrac < 0 || spec.SysFrac > 1 {
		panic(fmt.Sprintf("simos: SysFrac %v out of [0,1]", spec.SysFrac))
	}
	if spec.Demand <= 0 && spec.WallLimit <= 0 {
		panic("simos: process needs positive Demand or WallLimit")
	}
	h.nextPID++
	p := &process{
		pid:   h.nextPID,
		spec:  spec,
		start: now,
		left:  spec.Demand,
	}
	if spec.Demand <= 0 {
		p.left = math.Inf(1)
	}
	h.procs = append(h.procs, p)
	return p.pid
}

// SubmitAll schedules a batch of (time, spec) arrivals.
func (h *Host) SubmitAll(ts []float64, specs []ProcSpec) {
	if len(ts) != len(specs) {
		panic("simos: SubmitAll length mismatch")
	}
	for i := range ts {
		h.pending = append(h.pending, arrival{t: ts[i], spec: specs[i]})
	}
	sort.SliceStable(h.pending, func(i, j int) bool { return h.pending[i].t < h.pending[j].t })
}

// Exit returns the CPU fraction an exited process obtained (see RunProcess)
// along with its completion time. ok is false while the process is still
// live (or was never spawned).
func (h *Host) Exit(pid PID) (fraction, at float64, ok bool) {
	r, ok := h.exits[pid]
	if !ok {
		return 0, 0, false
	}
	return r.fraction, r.at, true
}

// cpuFraction is CPU seconds obtained over wall seconds; 0 when no wall time
// passed.
func cpuFraction(cpu, wall float64) float64 {
	if wall > 0 {
		return cpu / wall
	}
	return 0
}

// RunUntil advances the simulation to time t. It is a no-op if t <= Now.
func (h *Host) RunUntil(t float64) {
	target := int64(math.Ceil(t/h.cfg.Tick - 1e-9))
	for h.tickNum < target {
		h.step()
	}
}

// RunProcess spawns spec now, advances the simulation until it exits, and
// returns the fraction of the CPU it obtained: CPU seconds over wall
// seconds, 0 when no wall time passed. This is how the NWS probe and the
// paper's test process are run: they block the experiment loop exactly as
// a real spinning process blocks a shell.
func (h *Host) RunProcess(spec ProcSpec) float64 {
	if math.IsInf(spec.Demand, 1) && spec.WallLimit <= 0 {
		panic("simos: RunProcess would never return (infinite demand, no wall limit)")
	}
	pid := h.spawnAt(h.Now(), spec)
	p := h.find(pid)
	for !p.done {
		h.step()
	}
	return cpuFraction(p.cpuTime, h.Now()-p.start)
}

// dispatched reports whether p was already given a CPU this quantum.
func (h *Host) dispatched(p *process) bool {
	for _, q := range h.running {
		if q == p {
			return true
		}
	}
	return false
}

func (h *Host) find(pid PID) *process {
	for _, p := range h.procs {
		if p.pid == pid {
			return p
		}
	}
	return nil
}

// step advances one scheduling quantum.
func (h *Host) step() {
	now := h.Now()

	// Admit arrivals due now.
	for len(h.pending) > 0 && h.pending[0].t <= now {
		h.spawnAt(now, h.pending[0].spec)
		h.pending = h.pending[1:]
	}

	// Dispatch the NumCPUs lowest-priority runnable processes (one CPU per
	// process); within a priority run queue, the least recently scheduled
	// runs first (round-robin).
	tick := h.cfg.Tick
	h.ctr.Total += tick * float64(h.cfg.NumCPUs)
	h.running = h.running[:0]
	for cpu := 0; cpu < h.cfg.NumCPUs; cpu++ {
		var best *process
		var bestPri float64
		for _, p := range h.procs {
			if !p.runnable(now) || h.dispatched(p) {
				continue
			}
			pri := p.pcpu/4 + h.cfg.NiceWeight*float64(p.spec.Nice)
			if h.cfg.PriBucket > 0 {
				pri = math.Floor(pri / h.cfg.PriBucket)
			}
			if p.spec.Kernel {
				pri = math.Inf(-1) // interrupts preempt everything
			}
			if best == nil || pri < bestPri ||
				(pri == bestPri && p.lastRun < best.lastRun) {
				best, bestPri = p, pri
			}
		}
		if best == nil {
			h.ctr.Idle += tick * float64(h.cfg.NumCPUs-cpu)
			break
		}
		h.running = append(h.running, best)
	}
	stolen := 0.0
	if h.steal != nil && len(h.running) > 0 {
		stolen = h.steal(now)
		if stolen < 0 {
			stolen = 0
		} else if stolen > 1 {
			stolen = 1
		}
	}
	for _, best := range h.running {
		got := tick * (1 - stolen)
		best.cpuTime += got
		best.left -= got
		best.burstCPU += got
		best.lastRun = h.tickNum
		best.pcpu += 1
		if best.pcpu > h.cfg.PCpuMax {
			best.pcpu = h.cfg.PCpuMax
		}
		sys := tick * best.spec.SysFrac
		h.ctr.Sys += sys
		if best.spec.Nice > 0 {
			h.ctr.Nice += tick - sys
		} else {
			h.ctr.User += tick - sys
		}
		// Burst pattern: finished the compute phase of this burst?
		if best.spec.BurstCPU > 0 && best.burstCPU >= best.spec.BurstCPU-1e-12 {
			best.burstCPU = 0
			best.wake = now + tick + best.spec.BurstSleep
		}
	}

	h.tickNum++
	now = h.Now()

	// Reap exits: demand satisfied or wall limit expired.
	live := h.procs[:0]
	for _, p := range h.procs {
		if !p.done {
			if p.left <= 1e-12 {
				p.done = true
			} else if p.spec.WallLimit > 0 && now-p.start >= p.spec.WallLimit-1e-12 {
				p.done = true
			}
		}
		if !p.done {
			live = append(live, p)
		} else {
			h.exits[p.pid] = exitRec{fraction: cpuFraction(p.cpuTime, now-p.start), at: now}
		}
	}
	h.procs = live

	// Periodic kernel work.
	if h.tickNum >= h.nextDecayTick {
		h.nextDecayTick += h.decayTicks
		l := h.loadavg
		f := (2 * l) / (2*l + 1)
		for _, p := range h.procs {
			p.pcpu *= f
		}
	}
	if h.tickNum >= h.nextLoadTick {
		h.nextLoadTick += h.loadTicks
		alpha := math.Exp(-h.cfg.LoadSamplePeriod / h.cfg.LoadTimeConstant)
		h.loadavg = h.loadavg*alpha + float64(h.RunQueue())*(1-alpha)
	}
}
