// Quickstart: feed a CPU-availability trace into the NWS forecasting engine
// and make one-step-ahead predictions, then run the same pipeline through a
// replicated memory group and kill a replica mid-run to show the stream
// surviving.
//
//	go run ./examples/quickstart
//
// The trace here is synthetic (a slowly drifting availability signal with
// occasional level shifts, like a workstation whose owner comes and goes);
// in a real deployment the measurements come from the sensors (see
// examples/livehost) or from a memory server (see package nwsnet).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"nwscpu/internal/forecast"
	"nwscpu/internal/nwsnet"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

func main() {
	// Build a synthetic availability trace: 2 hours at 10-second cadence.
	rng := rand.New(rand.NewSource(42))
	level := 0.8
	trace := make([]float64, 720)
	for i := range trace {
		if rng.Float64() < 0.01 { // someone starts or stops working
			level = 0.2 + 0.7*rng.Float64()
		}
		v := level + rng.NormFloat64()*0.04
		trace[i] = math.Max(0, math.Min(1, v))
	}

	// The engine runs the full NWS forecaster bank and always forwards the
	// member that has been most accurate so far.
	eng := forecast.NewDefaultEngine()
	for _, v := range trace {
		eng.Update(v)
	}

	pred, ok := eng.Forecast()
	if !ok {
		panic("no forecast available")
	}
	fmt.Printf("measurements seen:     %d\n", eng.N())
	fmt.Printf("next-step forecast:    %.1f%% CPU available\n", pred.Value*100)
	fmt.Printf("chosen method:         %s\n", pred.Method)
	fmt.Printf("its cumulative MAE:    %.2f%%\n", pred.MAE*100)

	// A scheduler uses the forecast as an expansion factor: a job needing
	// 60 CPU-seconds is expected to take 60/avail wall seconds.
	const demand = 60.0
	fmt.Printf("\na %0.f CPU-second job should take about %.0f wall seconds here\n",
		demand, demand/pred.Value)

	// The per-method report shows how the bank ranked on this series.
	fmt.Println("\ntop five forecasters on this trace:")
	for i, m := range eng.Report() {
		if i == 5 {
			break
		}
		fmt.Printf("  %-14s MAE %.2f%%\n", m.Name, m.MAE*100)
	}

	if err := replicatedRun(); err != nil {
		log.Fatal(err)
	}
}

// replicatedRun stands up a 3-replica memory group, streams a simulated
// sensor into it, and kills one replica mid-run: the write quorum keeps the
// stream flowing and the survivors end up with every measurement.
func replicatedRun() error {
	fmt.Println("\n--- resilience: a 3-replica memory group, one replica killed mid-run ---")

	mems := make([]*nwsnet.Memory, 3)
	srvs := make([]*nwsnet.Server, 3)
	addrs := make([]string, 3)
	for i := range mems {
		mems[i] = nwsnet.NewMemory(0)
		srvs[i] = nwsnet.NewServer(mems[i], nil)
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = addr
		defer srvs[i].Close()
	}
	fmt.Printf("memory replicas: %v (write quorum 2)\n", addrs)

	// A simulated host under the paper's thing1 workload, measured every
	// 10 virtual seconds by a sensor daemon that writes to the group.
	h := simos.New(simos.DefaultConfig())
	workload.Submit(h, workload.Thing1().Generate(4000))
	d := nwsnet.NewSensorDaemon("thing1", sensors.SimHost{H: h}, addrs)
	defer d.Close()

	const steps = 60
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			srvs[0].Close() // the primary dies mid-run
			fmt.Printf("step %2d: killed primary replica %s\n", i, addrs[0])
		}
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err != nil {
			return fmt.Errorf("step %d: measurement lost: %w", i, err)
		}
	}

	key := nwsnet.SeriesKey("thing1", "nws_hybrid")
	fmt.Printf("after %d steps: backlog %d measurements\n", steps, d.Backlogged())
	for i, m := range mems {
		state := "alive"
		if i == 0 {
			state = "killed mid-run"
		}
		fmt.Printf("  replica %d (%s): %d points of %s\n", i, state, m.Len(key), key)
	}
	for _, r := range d.Replicas() {
		fmt.Printf("  health %-21s %v\n", r.Addr, r.Healthy)
	}
	fmt.Println("the survivors hold the full series: no measurement was lost")
	return nil
}
