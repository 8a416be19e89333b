// Package grid is the deterministic grid-scale scenario harness behind
// cmd/nwsgrid: it simulates a fleet of time-shared Unix hosts (thousands of
// simos instances) under heterogeneous load scenarios, drives the full
// in-process serving stack over them — sensord measurement ticks into a
// sharded, cluster-guarded Memory, a forecaster bank with its forecast
// cache and push subscriptions on top — under a simulated clock, and
// distills the run into a capacity-planning report: per-scenario
// forecast-error tables mirroring the paper's Tables 2 and 3, serving-plane
// latency quantiles versus offered load, and explicit SLO verdicts.
//
// Everything is a pure function of the seed and the configuration: no wall
// clock, no real sockets, no goroutine-order-dependent arithmetic. Host
// simulations run in parallel only where their state is disjoint, and every
// aggregation walks hosts in index order, so the same seed produces the
// same report byte for byte regardless of GOMAXPROCS.
package grid

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"nwscpu/internal/forecast"
	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

// SLO holds the service-level objectives a run is judged against.
type SLO struct {
	// ServeP99Ms is the serving-plane p99 latency budget in milliseconds;
	// one verdict per load factor.
	ServeP99Ms float64 `json:"serve_p99_ms"`
	// MaxUtil is the serving-plane utilization ceiling (headroom rule):
	// a load factor whose offered rate exceeds this fraction of the
	// service rate fails even if latency is still bounded.
	MaxUtil float64 `json:"max_utilization"`
	// EngineMAE is the forecast-accuracy budget: the scenario-mean MAE of
	// the dynamically selected forecaster (the paper's Eq. 5 error) must
	// stay at or below it.
	EngineMAE float64 `json:"engine_mae"`
}

// Config parameterizes one harness run. The zero value is not runnable;
// start from DefaultConfig or SmokeConfig.
type Config struct {
	Seed     int64
	Hosts    int
	Duration float64 // simulated seconds
	Cadence  float64 // measurement period (the paper uses 10 s)
	Tick     float64 // scheduler quantum of the simulated hosts

	// ServeRate is the modelled serving-plane capacity in memory
	// sub-operations per second, used by the FIFO drain model (queue.go).
	ServeRate float64
	// LoadFactors are the offered-load multipliers the serving plane is
	// evaluated at (1 = the load this run itself generated).
	LoadFactors []float64

	// SubEvery subscribes every Nth host's hybrid series to a push sink
	// (0 disables subscriptions).
	SubEvery int
	// QueryEvery issues a forecast query for every Nth host each round,
	// rotating the residue so all series are queried over time.
	QueryEvery int

	// Workers bounds the host-simulation worker pool; <= 0 selects
	// GOMAXPROCS. It affects wall time only, never the report.
	Workers int

	SLO SLO
}

// DefaultConfig is the shipped grid-scale configuration: a thousand hosts
// for fifteen simulated minutes.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Hosts:       1000,
		Duration:    900,
		Cadence:     10,
		Tick:        0.01,
		ServeRate:   250000,
		LoadFactors: []float64{1, 8, 64, 512},
		SubEvery:    4,
		QueryEvery:  10,
		SLO:         SLO{ServeP99Ms: 50, MaxUtil: 0.9, EngineMAE: 0.08},
	}
}

// SmokeConfig is the small CI-sized configuration (make grid-smoke): every
// scenario still gets hosts, but the run finishes in seconds under -race.
func SmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 48
	cfg.Duration = 300
	return cfg
}

func (cfg Config) normalize() Config {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1000
	}
	if cfg.Cadence < 2 {
		// The hybrid probe advances the host clock by its probe length
		// (1.5 s) on probe rounds; the cadence must dominate that.
		cfg.Cadence = 2
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 0.01
	}
	if cfg.Duration < 2*cfg.Cadence {
		cfg.Duration = 2 * cfg.Cadence
	}
	if cfg.ServeRate <= 0 {
		cfg.ServeRate = 250000
	}
	if len(cfg.LoadFactors) == 0 {
		cfg.LoadFactors = []float64{1, 8, 64, 512}
	}
	if cfg.SubEvery < 0 {
		cfg.SubEvery = 0
	}
	if cfg.QueryEvery <= 0 {
		cfg.QueryEvery = 10
	}
	if cfg.SLO.ServeP99Ms <= 0 {
		cfg.SLO.ServeP99Ms = 50
	}
	if cfg.SLO.MaxUtil <= 0 {
		cfg.SLO.MaxUtil = 0.9
	}
	if cfg.SLO.EngineMAE <= 0 {
		cfg.SLO.EngineMAE = 0.08
	}
	return cfg
}

// --- deterministic per-host randomness ---

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hostBits derives an independent 64-bit lane for host i from the run seed.
func hostBits(seed int64, i int, lane uint64) uint64 {
	return splitmix64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9 ^ lane*0x94D049BB133111EB)
}

// hostFrac is hostBits mapped into [0, 1).
func hostFrac(seed int64, i int, lane uint64) float64 {
	return float64(hostBits(seed, i, lane)>>11) / (1 << 53)
}

// jitter spreads a base rate across the fleet: [0.7, 1.3) of the original.
func jitter(u float64) float64 { return 0.7 + 0.6*u }

// --- scenario catalog ---

// scenario is one load regime in the catalog. build derives a host's
// workload profile (and optionally a hypervisor steal schedule) from the
// run duration and four per-host uniforms.
type scenario struct {
	name  string
	desc  string
	build func(d, cadence float64, u [4]float64) (workload.Profile, func(t float64) float64)
}

// stealSchedule is a square-wave noisy neighbor: a co-resident guest takes
// `level` of every quantum for the first `duty` of each 300-second window,
// and a small virtualization overhead remains in between.
func stealSchedule(u0, u1 float64) func(t float64) float64 {
	level := 0.2 + 0.3*u0
	duty := 0.3 + 0.4*u1
	return func(t float64) float64 {
		if math.Mod(t, 300) < duty*300 {
			return level
		}
		return 0.03
	}
}

// catalog returns the scenario set in report order. Hosts are assigned
// round-robin, so any fleet of at least len(catalog) hosts exercises every
// regime.
func catalog() []scenario {
	return []scenario{
		{
			name: "diurnal",
			desc: "interactive workstations under a daily cycle",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Thing1()
				p.JobRate *= jitter(u[0])
				p.SessionRate *= jitter(u[1])
				return p, nil
			},
		},
		{
			name: "flashcrowd",
			desc: "quiet hosts hit by a mid-run arrival surge",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Thing1()
				p.DailyAmp = 0.3
				p.JobRate *= jitter(u[0])
				p.SessionRate *= jitter(u[1])
				p.FlashStart = d * (0.3 + 0.2*u[2])
				p.FlashLen = d * 0.25
				p.FlashMult = 6
				return p, nil
			},
		},
		{
			name: "batchstorm",
			desc: "compute servers draining an ON/OFF batch queue",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Beowulf()
				p.JobRate *= jitter(u[0])
				p.StormPeriod = d / 4
				p.StormDuty = 0.3
				p.StormMult = 5
				return p, nil
			},
		},
		{
			name: "nicehog",
			desc: "nice-19 background soakers (the conundrum anomaly) fleet-wide",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Conundrum(d + 60)
				p.JobRate *= jitter(u[0])
				return p, nil
			},
		},
		{
			name: "longrunner",
			desc: "servers held by one full-priority job (the kongo anomaly)",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Kongo(d + 60)
				p.JobRate *= jitter(u[0])
				return p, nil
			},
		},
		{
			name: "steal",
			desc: "virtualized hosts losing quanta to a noisy neighbor",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Gremlin()
				p.JobRate *= jitter(u[0])
				return p, stealSchedule(u[2], u[3])
			},
		},
		{
			name: "chaotic",
			desc: "logistic-map modulated load (deterministic, non-periodic)",
			build: func(d, cadence float64, u [4]float64) (workload.Profile, func(float64) float64) {
				p := workload.Thing2()
				p.DailyCycle = false
				p.JobRate *= 2 * jitter(u[0])
				p.SessionRate *= jitter(u[1])
				p.ChaosAmp = 0.8
				p.ChaosStep = 2 * cadence
				return p, nil
			},
		},
	}
}

// ScenarioNames lists the catalog in report order.
func ScenarioNames() []string {
	cat := catalog()
	names := make([]string, len(cat))
	for i, s := range cat {
		names[i] = s.name
	}
	return names
}

// --- serving-plane instrumentation ---

// countingHandler counts the memory sub-operations the run actually issues
// (a batch envelope counts as its sub-requests); the serving-plane model
// scales this measured per-round demand by the configured load factors.
type countingHandler struct {
	inner nwsnet.Handler
	ops   atomic.Uint64
}

func (c *countingHandler) Handle(req nwsnet.Request) nwsnet.Response {
	if req.Op == nwsnet.OpBatch {
		c.ops.Add(uint64(len(req.Batch)))
	} else {
		c.ops.Add(1)
	}
	return c.inner.Handle(req)
}

// countSink is the harness's push subscriber: it only counts deliveries.
type countSink struct{ pushes atomic.Uint64 }

func (s *countSink) PushBatch(items []nwsnet.PushItem) (int, error) {
	s.pushes.Add(uint64(len(items)))
	return len(items), nil
}

// --- the runner ---

type hostSim struct {
	name     string
	scenIdx  int
	host     *simos.Host
	daemon   *nwsnet.SensorDaemon
	series   string // the host's nws_hybrid series key
	buildErr error
}

// forEachHost runs fn(i) for every host index on a bounded worker pool.
// fn must only touch state owned by host i (plus internally synchronized
// shared services); aggregation happens serially afterwards.
func forEachHost(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Run executes the harness and returns the capacity report. The report is a
// pure function of cfg: running twice with equal configs yields identical
// reports (see TestRunSameSeedByteIdentical).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.normalize()
	rounds := int(math.Round(cfg.Duration / cfg.Cadence))
	if rounds < 2 {
		rounds = 2
	}
	cfg.Duration = float64(rounds) * cfg.Cadence
	cat := catalog()
	n := cfg.Hosts

	// The store plane: a sharded Memory behind a single-member cluster
	// guard (the ownership check every partitioned deployment pays on its
	// hot path), with the harness's op counter in front.
	mem := nwsnet.NewMemory(0)
	node := nwsnet.NewClusterNode("grid-mem", mem)
	node.AdoptView(cluster.View{
		Epoch:   1,
		Config:  cluster.Config{Replication: 1, VNodes: 16, Seed: 1},
		Members: []cluster.Member{{ID: "grid-mem", Kind: string(nwsnet.KindMemory), Addr: "grid:0", State: cluster.StateActive}},
	})
	counted := &countingHandler{inner: node}
	backend := nwsnet.NewLocalBackend(counted)

	fc := nwsnet.NewForecasterServiceBackend(backend, 0)
	fc.SetCacheServing(true)
	sink := &countSink{}

	// Build the fleet: profile generation is the expensive part, so it runs
	// on the pool; each host's stream depends only on the seed and its
	// index.
	sims := make([]*hostSim, n)
	scenCount := make([]int, len(cat))
	for i := 0; i < n; i++ {
		si := i % len(cat)
		sims[i] = &hostSim{
			scenIdx: si,
			name:    fmt.Sprintf("%s-%04d", cat[si].name, scenCount[si]),
		}
		scenCount[si]++
	}
	forEachHost(n, cfg.Workers, func(i int) {
		s := sims[i]
		u := [4]float64{
			hostFrac(cfg.Seed, i, 0), hostFrac(cfg.Seed, i, 1),
			hostFrac(cfg.Seed, i, 2), hostFrac(cfg.Seed, i, 3),
		}
		profile, steal := cat[s.scenIdx].build(cfg.Duration, cfg.Cadence, u)
		profile.Name = s.name
		profile.Seed = int64(hostBits(cfg.Seed, i, 4))
		simCfg := simos.DefaultConfig()
		simCfg.Tick = cfg.Tick
		h := simos.New(simCfg)
		if steal != nil {
			h.SetSteal(steal)
		}
		// Generate past the end of the run: the last round still admits
		// arrivals, and fixtures must outlive the horizon.
		workload.Submit(h, profile.Generate(cfg.Duration+cfg.Cadence))
		s.host = h
		s.daemon = nwsnet.NewSensorDaemonBackend(s.name, sensors.SimHost{H: h}, backend, sensors.DefaultHybridConfig())
		s.series = nwsnet.SeriesKey(s.name, "nws_hybrid")
	})

	// The measurement loop: each round advances every host to the round
	// boundary and takes one measurement (parallel; hosts are disjoint and
	// the store plane is internally synchronized), then the serial read
	// plane runs — one refresh pass (cache + pushes) and a rotating slice
	// of forecast queries.
	stepErrs := make([]error, n)
	var queries uint64
	for r := 1; r <= rounds; r++ {
		target := float64(r) * cfg.Cadence
		forEachHost(n, cfg.Workers, func(i int) {
			sims[i].host.RunUntil(target)
			if err := sims[i].daemon.Step(); err != nil && stepErrs[i] == nil {
				stepErrs[i] = err
			}
		})
		for i, err := range stepErrs {
			if err != nil {
				return nil, fmt.Errorf("grid: round %d: host %s: %w", r, sims[i].name, err)
			}
		}
		if r == 1 && cfg.SubEvery > 0 {
			for i := 0; i < n; i += cfg.SubEvery {
				fc.Subscribe(nwsnet.Request{Op: nwsnet.OpSubscribe, Series: sims[i].series}, uint64(i), sink)
			}
		}
		fc.RefreshNow()
		for i := r % cfg.QueryEvery; i < n; i += cfg.QueryEvery {
			if resp := fc.Handle(nwsnet.Request{Op: nwsnet.OpForecast, Series: sims[i].series}); resp.Error != "" {
				return nil, fmt.Errorf("grid: round %d: forecast %s: %s", r, sims[i].series, resp.Error)
			}
			queries++
		}
	}

	// Score the run: replay every host's hybrid series through a fresh
	// forecaster bank (parallel), then aggregate per scenario in host index
	// order so float accumulation is deterministic.
	type hostEval struct {
		meanAvail float64
		engine    forecast.EvalResult
		members   []forecast.MethodError
		err       error
	}
	evals := make([]*hostEval, n)
	forEachHost(n, cfg.Workers, func(i int) {
		ev := &hostEval{}
		evals[i] = ev
		resp := mem.Handle(nwsnet.Request{Op: nwsnet.OpFetch, Series: sims[i].series})
		if resp.Error != "" {
			ev.err = fmt.Errorf("fetch %s: %s", sims[i].series, resp.Error)
			return
		}
		values := make([]float64, len(resp.Points))
		sum := 0.0
		for j, tv := range resp.Points {
			values[j] = tv[1]
			sum += tv[1]
		}
		ev.meanAvail = sum / float64(len(values))
		ev.engine, ev.members, ev.err = forecast.EvaluateEngine(forecast.NewDefaultEngine, values)
	})

	type memberAgg struct {
		sumMAE, sumMSE float64
		n              int
	}
	type scenAgg struct {
		hosts          int
		sumAvail       float64
		sumMAE, sumMSE float64
		members        map[string]*memberAgg
	}
	aggs := make([]*scenAgg, len(cat))
	for i := range aggs {
		aggs[i] = &scenAgg{members: make(map[string]*memberAgg)}
	}
	for i, ev := range evals {
		if ev.err != nil {
			return nil, fmt.Errorf("grid: evaluate %s: %w", sims[i].name, ev.err)
		}
		a := aggs[sims[i].scenIdx]
		a.hosts++
		a.sumAvail += ev.meanAvail
		a.sumMAE += ev.engine.MAE
		a.sumMSE += ev.engine.RMSE * ev.engine.RMSE
		for _, m := range ev.members {
			if m.N == 0 || math.IsInf(m.MAE, 1) {
				continue
			}
			ma := a.members[m.Name]
			if ma == nil {
				ma = &memberAgg{}
				a.members[m.Name] = ma
			}
			ma.sumMAE += m.MAE
			ma.sumMSE += m.MSE
			ma.n++
		}
	}

	report := &Report{
		Schema: SchemaVersion,
		Seed:   cfg.Seed,
		Config: ReportConfig{
			Hosts: n, DurationS: cfg.Duration, CadenceS: cfg.Cadence, TickS: cfg.Tick,
			ServeRateOps: cfg.ServeRate, LoadFactors: cfg.LoadFactors,
			SubEvery: cfg.SubEvery, QueryEvery: cfg.QueryEvery, SLO: cfg.SLO,
		},
	}
	hits, misses, invals := fc.CacheStats()
	totalOps := counted.ops.Load()
	opsPerRound := float64(totalOps) / float64(rounds)
	report.Totals = Totals{
		Rounds:             rounds,
		Series:             3 * n,
		PointsStored:       uint64(3 * n * rounds),
		MemoryOps:          totalOps,
		OpsPerRound:        opsPerRound,
		Queries:            queries,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheInvalidations: invals,
		Subscriptions:      fc.Subscriptions(),
		Pushes:             sink.pushes.Load(),
	}

	for si, sc := range cat {
		a := aggs[si]
		res := ScenarioResult{Name: sc.name, Desc: sc.desc, Hosts: a.hosts}
		if a.hosts > 0 {
			res.MeanAvail = a.sumAvail / float64(a.hosts)
			res.EngineMAE = a.sumMAE / float64(a.hosts)
			res.EngineMSE = a.sumMSE / float64(a.hosts)
			for _, name := range sortedMemberNames(a.members) {
				ma := a.members[name]
				res.Members = append(res.Members, MemberError{
					Name: name,
					MAE:  ma.sumMAE / float64(ma.n),
					MSE:  ma.sumMSE / float64(ma.n),
				})
			}
			sortMembers(res.Members)
		}
		report.Scenarios = append(report.Scenarios, res)
	}

	for _, factor := range cfg.LoadFactors {
		report.Serving = append(report.Serving,
			simulateServe(opsPerRound, cfg.Cadence, factor, cfg.ServeRate, serveModelIntervals))
	}

	for _, sp := range report.Serving {
		pass := sp.P99Ms <= cfg.SLO.ServeP99Ms && sp.Utilization <= cfg.SLO.MaxUtil
		report.Verdicts = append(report.Verdicts, Verdict{
			Config: fmt.Sprintf("serve@%gx", sp.Factor),
			SLO:    fmt.Sprintf("p99<=%gms,util<=%.2f", cfg.SLO.ServeP99Ms, cfg.SLO.MaxUtil),
			Value:  sp.P99Ms,
			Target: cfg.SLO.ServeP99Ms,
			Pass:   pass,
		})
	}
	for _, sr := range report.Scenarios {
		report.Verdicts = append(report.Verdicts, Verdict{
			Config: "forecast@" + sr.Name,
			SLO:    fmt.Sprintf("engine_mae<=%.3f", cfg.SLO.EngineMAE),
			Value:  sr.EngineMAE,
			Target: cfg.SLO.EngineMAE,
			Pass:   sr.EngineMAE <= cfg.SLO.EngineMAE,
		})
	}
	return report, nil
}
