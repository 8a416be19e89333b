// Command nwsgrid runs the deterministic grid-scale scenario harness: a
// fleet of simulated time-shared Unix hosts under heterogeneous load
// regimes (diurnal cycles, flash crowds, batch storms, nice-19 hogs,
// long-runner evictors, hypervisor steal, chaotic load) driving the full
// in-process serving stack, reported as a capacity plan — per-scenario
// forecast-error tables, serving latency versus offered load, and SLO
// verdicts.
//
// The report is a pure function of -seed and the flags: the same
// invocation reproduces it byte for byte (text and JSON alike).
//
//	nwsgrid -seed 42                         # 1000 hosts, text to stdout
//	nwsgrid -smoke -json report.json         # CI-sized run + JSON artifact
//	nwsgrid -hosts 2000 -duration 1800 -factors 1,16,256
//
// -faults switches to the seeded fault-campaign mode: the same seed drives
// an identical schedule of replica crashes, stalls, asymmetric partitions,
// and sensor clock skews against the in-process replication stack, run once
// with the anti-entropy repair plane and once without, and the robustness
// report (schema nws/fault-report/v2) scores both arms against the
// campaign's invariants.
//
//	nwsgrid -faults -seed 42                 # robustness report to stdout
//	nwsgrid -faults -json fault.json         # + JSON artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nwscpu/internal/grid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwsgrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := grid.DefaultConfig()
	var (
		seed       = fs.Int64("seed", def.Seed, "run seed; same seed + flags => byte-identical report")
		hosts      = fs.Int("hosts", def.Hosts, "number of simulated hosts")
		duration   = fs.Float64("duration", def.Duration, "simulated seconds")
		cadence    = fs.Float64("cadence", def.Cadence, "measurement period, seconds")
		serveRate  = fs.Float64("serverate", def.ServeRate, "modelled serving capacity, memory ops/s")
		factors    = fs.String("factors", "1,8,64,512", "comma-separated offered-load multipliers")
		subEvery   = fs.Int("sub-every", def.SubEvery, "subscribe every Nth host's hybrid series (0 disables)")
		queryEvery = fs.Int("query-every", def.QueryEvery, "query every Nth series per round")
		sloP99     = fs.Float64("slo-p99ms", def.SLO.ServeP99Ms, "serving p99 latency budget, milliseconds")
		sloUtil    = fs.Float64("slo-util", def.SLO.MaxUtil, "serving utilization ceiling")
		sloMAE     = fs.Float64("slo-mae", def.SLO.EngineMAE, "forecast engine MAE budget")
		smoke      = fs.Bool("smoke", false, "CI-sized run (48 hosts, 300 s) unless -hosts/-duration are given")
		outPath    = fs.String("out", "", "also write the text report to this file")
		jsonPath   = fs.String("json", "", "write the JSON report (schema "+grid.SchemaVersion+") to this file")

		fdef          = grid.DefaultFaultConfig()
		faults        = fs.Bool("faults", false, "run the seeded fault campaign instead of the capacity harness")
		faultRounds   = fs.Int("fault-rounds", fdef.Rounds, "fault campaign length in measurement rounds")
		faultReplicas = fs.Int("fault-replicas", fdef.Replicas, "memory replica count in the fault campaign")
		faultBacklog  = fs.Int("fault-backlog", fdef.BacklogCap, "sensor backlog cap (the writer's self-healing window)")
		faultRecovery = fs.Int("fault-recovery", fdef.RecoveryRounds, "rounds allowed for post-fault convergence")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	loadFactors, err := parseFactors(*factors)
	if err != nil {
		fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
		return 2
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *faults {
		fcfg := fdef
		fcfg.Seed = *seed
		fcfg.Rounds = *faultRounds
		fcfg.Replicas = *faultReplicas
		fcfg.BacklogCap = *faultBacklog
		fcfg.RecoveryRounds = *faultRecovery
		if set["hosts"] {
			fcfg.Hosts = *hosts
		}
		if set["cadence"] {
			fcfg.Cadence = *cadence
		}
		frep, err := grid.RunFaultCampaign(fcfg)
		if err != nil {
			fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
			return 1
		}
		if err := frep.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
			return 1
		}
		if *outPath != "" {
			if err := writeReport(*outPath, frep.WriteText); err != nil {
				fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
				return 1
			}
		}
		if *jsonPath != "" {
			if err := writeReport(*jsonPath, frep.WriteJSON); err != nil {
				fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
				return 1
			}
		}
		for _, v := range frep.Verdicts {
			if !v.Pass {
				fmt.Fprintf(stderr, "nwsgrid: fault invariant failed: %s (%s) = %g\n", v.Config, v.SLO, v.Value)
				return 1
			}
		}
		return 0
	}
	cfg := grid.Config{
		Seed: *seed, Hosts: *hosts, Duration: *duration, Cadence: *cadence,
		ServeRate: *serveRate, LoadFactors: loadFactors,
		SubEvery: *subEvery, QueryEvery: *queryEvery,
		SLO: grid.SLO{ServeP99Ms: *sloP99, MaxUtil: *sloUtil, EngineMAE: *sloMAE},
	}
	if *smoke {
		sm := grid.SmokeConfig()
		if !set["hosts"] {
			cfg.Hosts = sm.Hosts
		}
		if !set["duration"] {
			cfg.Duration = sm.Duration
		}
	}

	rep, err := grid.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
		return 1
	}
	if err := rep.WriteText(stdout); err != nil {
		fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
		return 1
	}
	if *outPath != "" {
		if err := writeReport(*outPath, rep.WriteText); err != nil {
			fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
			return 1
		}
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "nwsgrid: %v\n", err)
			return 1
		}
	}
	return 0
}

func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad load factor %q", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load factors in %q", s)
	}
	return out, nil
}

func writeReport(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
