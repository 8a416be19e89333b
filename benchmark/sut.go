package main

// sut.go is the benchmark's only door into the system under test: every
// import of nwscpu/internal/... lives here, so an issue that collapses or
// renames the stack's public constructors (ROADMAP item 3) has exactly one
// benchmark file to touch. The rest of the benchmark sees the aliases and
// helpers below and nothing else.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nwscpu/internal/forecast"
	"nwscpu/internal/nwsnet"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

type (
	Request        = nwsnet.Request
	Response       = nwsnet.Response
	BatchStore     = nwsnet.BatchStore
	BatchFetch     = nwsnet.BatchFetch
	FetchResult    = nwsnet.FetchResult
	ForecastResult = nwsnet.ForecastResult
	Handler        = nwsnet.Handler
	Transport      = nwsnet.Transport
	FetchBackend   = nwsnet.FetchBackend
	Memory         = nwsnet.Memory
	Persistent     = nwsnet.PersistentMemory
	Server         = nwsnet.Server
	MuxConn        = nwsnet.MuxConn
	MuxCall        = nwsnet.MuxCall
	ReplicaGroup   = nwsnet.ReplicaGroup
	Forecaster     = nwsnet.ForecasterService
	LocalBackend   = nwsnet.LocalBackend
)

const (
	opStore    = nwsnet.OpStore
	opFetch    = nwsnet.OpFetch
	opBatch    = nwsnet.OpBatch
	opForecast = nwsnet.OpForecast
)

// cadence is the paper's measurement period in seconds: tick k of every
// series carries timestamp k*cadence.
const cadence = 10.0

// sensorNames are the three availability sensors of the paper, in the order
// a sensor daemon stores them each tick.
var sensorNames = [3]string{"load_average", "vmstat", "nws_hybrid"}

func seriesKey(host string, sensor int) string {
	return nwsnet.SeriesKey(host, sensorNames[sensor])
}

func newMemory(capacity int) *Memory { return nwsnet.NewMemory(capacity) }

// startServer serves h on an ephemeral loopback port.
func startServer(h Handler) (*Server, string, error) {
	srv := nwsnet.NewServer(h, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return srv, addr, nil
}

// dialMux opens one pipelined binary connection.
func dialMux(addr string) (*MuxConn, error) { return nwsnet.DialMux(addr, 5*time.Second) }

// newReplicaGroup builds the lockstep pooled Client + ReplicaGroup stack over
// addrs with a write quorum of every replica. wrap, when non-nil, interposes
// on the Transport seam between the group and the client (the traced run).
// The returned func closes the client's pooled connections.
func newReplicaGroup(addrs []string, wrap func(Transport) Transport) (*ReplicaGroup, func() error) {
	client := nwsnet.NewClient(5 * time.Second)
	if wrap == nil {
		return nwsnet.NewReplicaGroup(client, addrs, len(addrs)), client.Close
	}
	return nwsnet.NewReplicaGroupTransport(wrap(client), addrs, len(addrs)), client.Close
}

// newForecaster builds Memory -> LocalBackend -> ForecasterService in
// process, cache serving on, exactly as internal/grid wires it. wrap, when
// non-nil, interposes on the FetchBackend seam (the traced run).
func newForecaster(mem Handler, wrap func(FetchBackend) FetchBackend) (*Forecaster, *LocalBackend) {
	local := nwsnet.NewLocalBackend(mem)
	var fb FetchBackend = local
	if wrap != nil {
		fb = wrap(local)
	}
	fc := nwsnet.NewForecasterServiceBackend(fb, 0)
	fc.SetCacheServing(true)
	return fc, local
}

func openPersistent(capacity int, dir string) (*Persistent, error) {
	return nwsnet.NewPersistentMemory(capacity, dir)
}

// engine is the bare forecaster bank, for the offline replays that the
// served forecasts must equal bit for bit.
type engine struct{ e *forecast.Engine }

func newEngine() engine { return engine{forecast.NewDefaultEngine()} }

func (e engine) update(v float64) { e.e.Update(v) }

// forecast mirrors ForecasterService.forecastLocked field for field.
func (e engine) forecast() (ForecastResult, bool) {
	p, ok := e.e.Forecast()
	if !ok {
		return ForecastResult{}, false
	}
	return ForecastResult{Value: p.Value, Method: p.Method, MAE: p.MAE, N: e.e.N()}, true
}

// --- availability traces ---------------------------------------------------

// regimes is the number of load regimes of the grid harness's catalog
// (internal/grid: diurnal, flashcrowd, batchstorm, nicehog, longrunner,
// steal, chaotic); host h of the pool runs regime h mod regimes. The catalog
// itself is unexported there, so the profile construction is repeated here.
const regimes = 7

func regimeProfile(regime int, d float64, u [4]float64) (workload.Profile, func(float64) float64) {
	jitter := func(x float64) float64 { return 0.7 + 0.6*x }
	switch regime {
	case 0: // diurnal
		p := workload.Thing1()
		p.JobRate *= jitter(u[0])
		p.SessionRate *= jitter(u[1])
		return p, nil
	case 1: // flashcrowd
		p := workload.Thing1()
		p.DailyAmp = 0.3
		p.JobRate *= jitter(u[0])
		p.SessionRate *= jitter(u[1])
		p.FlashStart = d * (0.3 + 0.2*u[2])
		p.FlashLen = d * 0.25
		p.FlashMult = 6
		return p, nil
	case 2: // batchstorm
		p := workload.Beowulf()
		p.JobRate *= jitter(u[0])
		p.StormPeriod = d / 4
		p.StormDuty = 0.3
		p.StormMult = 5
		return p, nil
	case 3: // nicehog
		p := workload.Conundrum(d + 60)
		p.JobRate *= jitter(u[0])
		return p, nil
	case 4: // longrunner
		p := workload.Kongo(d + 60)
		p.JobRate *= jitter(u[0])
		return p, nil
	case 5: // steal
		p := workload.Gremlin()
		p.JobRate *= jitter(u[0])
		level, duty := 0.2+0.3*u[2], 0.3+0.4*u[3]
		return p, func(t float64) float64 {
			if math.Mod(t, 300) < duty*300 {
				return level
			}
			return 0.03
		}
	default: // chaotic
		p := workload.Thing2()
		p.DailyCycle = false
		p.JobRate *= 2 * jitter(u[0])
		p.SessionRate *= jitter(u[1])
		p.ChaosAmp = 0.8
		p.ChaosStep = 2 * cadence
		return p, nil
	}
}

// genTraces simulates hosts time-shared Unix hosts for points measurement
// rounds each and returns what the three sensors measured: traces[3*h+s] is
// sensor s of host h. It is a pure function of its arguments.
func genTraces(seed uint64, hosts, points int) [][]float64 {
	traces := make([][]float64, 3*hosts)
	d := float64(points) * cadence
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				h := int(next.Add(1)) - 1
				if h >= hosts {
					return
				}
				var u [4]float64
				for i := range u {
					u[i] = float64(mix(seed, uint64(h), uint64(i))>>11) / (1 << 53)
				}
				profile, steal := regimeProfile(h%regimes, d, u)
				profile.Name = fmt.Sprintf("pool-%03d", h)
				profile.Seed = int64(mix(seed, uint64(h), 4) >> 1)
				host := simos.New(simos.DefaultConfig())
				if steal != nil {
					host.SetSteal(steal)
				}
				workload.Submit(host, profile.Generate(d+cadence))
				sh := sensors.SimHost{H: host}
				ss := [3]sensors.Sensor{
					sensors.NewLoadAvgSensor(sh),
					sensors.NewVmstatSensor(sh, 0),
					sensors.NewHybridSensor(sh, sensors.DefaultHybridConfig()),
				}
				for s := range ss {
					traces[3*h+s] = make([]float64, points)
				}
				for r := 0; r < points; r++ {
					host.RunUntil(float64(r+1) * cadence)
					for s, sensor := range ss {
						traces[3*h+s][r] = sensor.Measure()
					}
				}
			}
		}()
	}
	wg.Wait()
	return traces
}
