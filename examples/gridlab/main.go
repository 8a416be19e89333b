// Gridlab stands up a complete distributed NWS in one process — name
// server, durable memory, forecaster service, and one sensor daemon per
// simulated host — exactly the deployment the paper's forecasts were served
// from, then queries it the way a grid scheduler would.
//
//	go run ./examples/gridlab
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	stateDir, err := os.MkdirTemp("", "gridlab-memory-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	// 1. Name server with heartbeat expiry.
	nsSrv := nwsnet.NewServer(nwsnet.NewNameServer(0, cluster.Config{}), nil)
	nsAddr, err := nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer nsSrv.Close()

	// 2. Durable memory.
	mem, err := nwsnet.NewPersistentMemory(0, stateDir)
	if err != nil {
		return err
	}
	defer mem.Close()
	memSrv := nwsnet.NewServer(mem, nil)
	memAddr, err := memSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer memSrv.Close()

	// 3. Forecaster service over the memory.
	fcSrv := nwsnet.NewServer(nwsnet.NewForecasterService([]string{memAddr}, 0), nil)
	fcAddr, err := fcSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer fcSrv.Close()

	c := nwsnet.NewClient(0)
	for name, kind := range map[string]nwsnet.Kind{
		"memory0":     nwsnet.KindMemory,
		"forecaster0": nwsnet.KindForecaster,
	} {
		addr := memAddr
		if kind == nwsnet.KindForecaster {
			addr = fcAddr
		}
		if err := c.RegisterCtx(ctx, nsAddr, nwsnet.Registration{Name: name, Kind: kind, Addr: addr}); err != nil {
			return err
		}
	}

	// 4. One sensor daemon per simulated host; an hour of virtual
	// measurements pushed through the real network stack.
	hosts := []workload.Profile{workload.Thing1(), workload.Thing2(), workload.Gremlin()}
	fmt.Printf("pushing 1 virtual hour of measurements from %d hosts through the NWS...\n\n", len(hosts))
	for _, p := range hosts {
		h := simos.New(simos.DefaultConfig())
		workload.Submit(h, p.Generate(4000))
		d := nwsnet.NewSensorDaemon(p.Name, sensors.SimHost{H: h}, []string{memAddr})
		if err := d.Register(nsAddr, memAddr); err != nil {
			return err
		}
		for t := 10.0; t <= 3600; t += 10 {
			h.RunUntil(t)
			if err := d.Step(); err != nil {
				return err
			}
		}
	}

	// 5. Query it like a scheduler: enumerate sensors, read back series,
	// ask for forecasts.
	regs, err := c.ListCtx(ctx, nsAddr, nwsnet.KindSensor)
	if err != nil {
		return err
	}
	fmt.Println("registered sensors:")
	for _, r := range regs {
		fmt.Printf("  %-14s -> %s\n", r.Name, r.Addr)
	}

	keys, err := c.SeriesCtx(ctx, memAddr)
	if err != nil {
		return err
	}
	fmt.Printf("\nmemory holds %d series; forecasting the hybrid series of each host:\n", len(keys))
	for _, p := range hosts {
		key := nwsnet.SeriesKey(p.Name, "nws_hybrid")
		fc, err := c.ForecastCtx(ctx, fcAddr, key)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s next availability %.1f%%  (method %s, MAE %.2f%%, %d measurements)\n",
			p.Name, fc.Value*100, fc.Method, fc.MAE*100, fc.N)
	}

	files, err := os.ReadDir(stateDir)
	if err != nil {
		return err
	}
	fmt.Printf("\ndurable memory keeps %d series in %d file(s) under %s:\n", len(keys), len(files), stateDir)
	for _, f := range files {
		kind := "write-ahead log generation"
		if filepath.Ext(f.Name()) == ".snap" {
			kind = "snapshot"
		}
		if info, err := f.Info(); err == nil {
			fmt.Printf("  %-16s %8d bytes  (%s)\n", f.Name(), info.Size(), kind)
		}
	}
	fmt.Println("(a restarted memory server loads the newest snapshot and redoes the log after it; see nwsnet.PersistentMemory)")
	return nil
}
