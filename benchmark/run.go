package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// metricDef describes one reported metric. bound is the share of the
// parent's median an end-to-end metric may worsen by before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what an operator of the stack sees. Every workload reports all
// five; see README.md for the per-workload definitions of the work unit and
// of latency.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"latency_p50_us", "us", "lower", 0.25},
	{"resident_bytes_per_point", "B/point", "lower", 0.05},
}

// passes of equal fixed work per run: one untimed warm-up, then the timed
// ones. The traced run alternates untraced and traced passes instead.
//
// Interference on a shared 2-core box only ever slows a pass down, and it
// comes in stretches of several seconds, so a run reports the first quartile
// of its passes on the good side (the 3rd best of 10) rather than their
// median: the figure holds as long as three passes ran undisturbed.
const (
	timedPasses = 10
	tracePairs  = 2
)

// baseSeconds is the run length the committed op counts are calibrated for;
// -seconds scales them linearly.
const baseSeconds = 10.0

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-up repetitions; setup_s is their median
	outDir   string
}

func (c runConfig) scale() float64 { return c.seconds / baseSeconds }

// tracePool generates the availability traces every workload replays: 12
// simulated hosts of each of the 7 regimes, 1024 measurement rounds each
// (fewer hosts when a run is scaled below the calibrated length).
func (c runConfig) tracePool(st *setupTimes) [][]float64 {
	t0 := time.Now()
	pool := genTraces(c.seed, scaled(12*regimes, min(c.scale(), 1), regimes), 1024)
	st.tracegen = time.Since(t0)
	return pool
}

// setupTimes are the sub-phases of one set-up, for the per-layer report.
type setupTimes struct{ tracegen, prefill, warm time.Duration }

// passResult is what one pass of fixed work did.
type passResult struct {
	units     int64         // work units completed
	attempted int64         // operations issued
	failed    int64         // operations refused, timed out, dropped or answered wrongly
	wall      time.Duration // the interval throughput is taken over
}

// runClients runs client(c) on n goroutines at once and returns the sum of
// what they did, with the wall time until the last one finished.
func runClients(n int, client func(c int) passResult) passResult {
	results := make([]passResult, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = client(c)
		}(c)
	}
	wg.Wait()
	total := passResult{wall: time.Since(t0)}
	for _, r := range results {
		total.units += r.units
		total.attempted += r.attempted
		total.failed += r.failed
	}
	return total
}

// recorder keeps per-lane latency samples in nanoseconds, pass by pass; nil
// records nothing.
type recorder struct {
	lanes [][]uint32
	marks [][]int // per pass: where its samples start in each lane
}

func newRecorder(lanes, perLane int) *recorder {
	r := &recorder{lanes: make([][]uint32, lanes)}
	for i := range r.lanes {
		r.lanes[i] = make([]uint32, 0, perLane)
	}
	return r
}

func (r *recorder) add(lane int, d time.Duration) {
	if r == nil {
		return
	}
	r.lanes[lane] = append(r.lanes[lane], uint32(min(d, time.Duration(^uint32(0)))))
}

// startPass opens a new pass; call it between passes only.
func (r *recorder) startPass() {
	mark := make([]int, len(r.lanes))
	for i, l := range r.lanes {
		mark[i] = len(l)
	}
	r.marks = append(r.marks, mark)
}

// passMedians returns each pass's median sample in microseconds, pooled over
// the lanes, and the total number of samples.
func (r *recorder) passMedians() (p50us []float64, samples int) {
	for p, mark := range r.marks {
		var pass []uint32
		for i, l := range r.lanes {
			end := len(l)
			if p+1 < len(r.marks) {
				end = r.marks[p+1][i]
			}
			pass = append(pass, l[mark[i]:end]...)
		}
		slices.Sort(pass)
		p50us = append(p50us, float64(quantileSorted(pass, 0.5))/1e3)
		samples += len(pass)
	}
	return p50us, samples
}

// scenario is one closed-loop, fixed-work scenario over the stack.
type scenario interface {
	// unit names the work unit throughput and CPU are divided by.
	unit() string
	// counts are the committed op counts of one pass at this run's scale.
	counts() map[string]int
	// pathLanes is how many client goroutines are busy for a whole pass.
	pathLanes() int
	// setup builds the system under test up to the first timed operation.
	setup(st *setupTimes) error
	// pass runs fixed-work pass p (0 is the warm-up). tr and rec may be nil.
	pass(p int, tr *tracer, rec *recorder) (passResult, error)
	// retained is the number of points the memories hold.
	retained() int64
	// verify checks the program's state and answers against the ledger.
	verify(passes int) error
	// scheduleFNV checksums the request schedule of passes 0..passes-1.
	scheduleFNV(passes int) uint64
	// spanBudget is the number of spans one traced pass records.
	spanBudget() int
	// layers adds the workload's per-layer metrics from the traced passes,
	// which took tracedWall together.
	layers(sum traceSummary, tracedWall time.Duration, m map[string]float64) error
	close() error
}

func newWorkload(cfg runConfig) (scenario, error) {
	switch cfg.workload {
	case "wire_ingest":
		return newWireIngest(cfg), nil
	case "history_fetch":
		return newHistoryFetch(cfg), nil
	case "forecast_serve":
		return newForecastRounds(cfg, false), nil
	case "forecast_push":
		return newForecastRounds(cfg, true), nil
	case "durable_restart":
		return newDurableRestart(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Unit      string             `json:"unit"`
	Env       environment        `json:"env"`
	Counts    map[string]int     `json:"committed_counts_per_pass"`
	Passes    int                `json:"passes"`
	PassWallS []float64          `json:"pass_wall_s"`
	FNV       string             `json:"schedule_fnv"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Retained  int64              `json:"points_retained"`
	Samples   int                `json:"latency_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Correct   bool               `json:"correct"`
}

// setUp runs the workload's set-up cfg.setups times, keeping the last one,
// and returns the wall time of each.
func setUp(cfg runConfig, st *setupTimes) (scenario, []float64, error) {
	var w scenario
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, nil, err
		}
		*st = setupTimes{}
		t0 := time.Now()
		if err := w.setup(st); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return w, took, nil
}

// run executes one workload once: set-up, warm-up pass, timed passes,
// verification. With cfg.trace it reports the per-layer metrics instead of
// the end-to-end ones.
func run(cfg runConfig) (res *runResult, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	// A stale trace of this workload must not be mistaken for this run's.
	if err := os.RemoveAll(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
		return nil, err
	}
	var st setupTimes
	w, setupS, err := setUp(cfg, &st)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("close: %w", cerr)
		}
	}()

	res = &runResult{
		Workload: cfg.workload, Unit: w.unit(), Env: readEnvironment(cfg),
		Counts: w.counts(), Metrics: make(map[string]float64),
	}
	if _, err := w.pass(0, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	res.Passes = 1
	if cfg.trace {
		err = runTraced(cfg, w, &st, res)
	} else {
		err = runTimed(w, res)
		res.Metrics["setup_s"] = median(setupS)
	}
	if err != nil {
		return nil, err
	}
	res.Retained = w.retained()
	res.FNV = fmt.Sprintf("%016x", w.scheduleFNV(res.Passes))
	if err := w.verify(res.Passes); err != nil {
		return res, fmt.Errorf("verification: %w", err)
	}
	res.Correct = true
	return res, nil
}

func runTimed(w scenario, res *runResult) error {
	rec := newRecorder(w.pathLanes(), 1<<16)
	var rates, cpuPerOp []float64
	for p := 1; p <= timedPasses; p++ {
		rec.startPass()
		runtime.GC()
		c0 := cpuTime()
		pr, err := w.pass(p, nil, rec)
		c := cpuTime() - c0
		if err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		res.Passes++
		res.PassWallS = append(res.PassWallS, pr.wall.Seconds())
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		rates = append(rates, float64(pr.units)/pr.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(c.Nanoseconds())/1e3/float64(pr.units))
	}
	p50s, samples := rec.passMedians()
	res.Samples = samples
	res.Metrics["throughput_per_s"] = bestQuartile(rates, true)
	res.Metrics["cpu_us_per_op"] = bestQuartile(cpuPerOp, false)
	res.Metrics["latency_p50_us"] = bestQuartile(p50s, false)
	// The samples must not count as the program's resident memory.
	rec = nil
	res.Metrics["resident_bytes_per_point"] = float64(heapInUse()) / float64(w.retained())
	return nil
}

// runTraced alternates untraced and traced passes of the same fixed work:
// the traced ones give the spans, the pairs give the tracing overhead.
func runTraced(cfg runConfig, w scenario, st *setupTimes, res *runResult) error {
	tr := newTracer(tracePairs*w.spanBudget() + 1024)
	var plain, traced []float64
	var tracedWall time.Duration
	var ms0, ms1 runtime.MemStats
	var plainUnits int64
	p := 0
	for pair := 0; pair < tracePairs; pair++ {
		p++
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		pr, err := w.pass(p, nil, nil)
		if err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		runtime.ReadMemStats(&ms1)
		plain = append(plain, float64(pr.units)/pr.wall.Seconds())
		plainUnits += pr.units
		res.Metrics["proc.allocs_per_op"] += float64(ms1.Mallocs - ms0.Mallocs)
		res.Metrics["proc.alloc_bytes_per_op"] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		res.Metrics["proc.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		res.Metrics["proc.gc_pause_ms"] += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		res.PassWallS = append(res.PassWallS, pr.wall.Seconds())
		res.Attempted += pr.attempted
		res.Failed += pr.failed

		p++
		runtime.GC()
		t0 := time.Now()
		pr, err = w.pass(p, tr, nil)
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", p, err)
		}
		tracedWall += time.Since(t0)
		traced = append(traced, float64(pr.units)/pr.wall.Seconds())
		res.PassWallS = append(res.PassWallS, pr.wall.Seconds())
		res.Attempted += pr.attempted
		res.Failed += pr.failed
	}
	res.Passes += p
	res.Metrics["proc.allocs_per_op"] /= float64(plainUnits)
	res.Metrics["proc.alloc_bytes_per_op"] /= float64(plainUnits)

	spans := tr.recorded()
	sum := summarize(spans, w.pathLanes())
	res.Metrics["simos.tracegen_s"] = st.tracegen.Seconds()
	res.Metrics["memory.prefill_s"] = st.prefill.Seconds()
	res.Metrics["forecaster.warm_s"] = st.warm.Seconds()
	res.Metrics["trace.overhead_ratio"] = median(traced) / median(plain)
	res.Metrics["trace.spans_dropped"] = float64(tr.dropped.Load())
	res.Metrics["trace.coverage_ratio"] = float64(sum.CoveredNs) / (float64(tracedWall) * float64(w.pathLanes()))
	if err := w.layers(sum, tracedWall, res.Metrics); err != nil {
		return fmt.Errorf("per-layer replays: %w", err)
	}
	path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	if err := writeTraceFile(path, cfg.workload, spans, sum, tr.dropped.Load()); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
