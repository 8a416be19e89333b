// Command benchmark is the repository's repeatable benchmark: five
// fixed-work, closed-loop workloads over the NWS stack (sensor traces ->
// memory -> forecaster bank -> push plane, and the durable memory), each
// verified against a ledger computed from the seed. See README.md.
//
//	benchmark -workload wire_ingest -seed 1            end-to-end metrics
//	benchmark -workload wire_ingest -seed 1 -trace 1   per-layer metrics
//	benchmark -workload all -repeat 10                 A/A repeatability check
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

var workloads = []struct{ name, why string }{
	{"wire_ingest", "binary codec, framing, serial v2 executor and shard write path; engine and disk idle"},
	{"history_fetch", "reads beside writes through the lockstep Client + ReplicaGroup stack; true round-trip latency"},
	{"forecast_serve", "the 25-member forecaster bank's Engine.Update dominates; no sockets, no codec"},
	{"forecast_push", "the push plane: one encode, two deadlines and one flush per pushed forecast"},
	{"durable_restart", "the JSON-lines log, one fd per series, compaction and replay-from-zero on reopen"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// environment is recorded with every result so numbers are never compared
// across machines or settings by accident.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func readEnvironment(cfg runConfig) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: "100 (default)",
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var b strings.Builder
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		env.Kernel = b.String()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// contractLine is the result line the driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable block and then the contract line.
func report(res *runResult, defs []metricDef) error {
	block, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("run %s\n", block)
	line := contractLine{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: make(map[string]contractValue)}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, regression bound %.0f%%)", d.Better, 100*d.Bound)
		}
		fmt.Printf("  %-36s %16.6g %-8s%s\n", d.Name, v, d.Unit, bound)
		line.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all with -repeat)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs and request schedule")
		seconds = flag.Float64("seconds", baseSeconds, "timed seconds the committed op counts are scaled to")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "A/A self-check: run two sets of N runs per workload and compare them")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files and the durable store")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatCheck(*name, *seed, *seconds, *repeat, *outDir))
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3, outDir: *outDir}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		cfg.setups = 1
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		if res != nil {
			// Verification failed: say so in the contract's form, without metrics.
			out, _ := json.Marshal(contractLine{Attempted: max(res.Attempted, 1), Failed: res.Failed,
				Metrics: map[string]contractValue{}})
			fmt.Printf("%s\n", out)
		}
		os.Exit(1)
	}
	if err := report(res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}
