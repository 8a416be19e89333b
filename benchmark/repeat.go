package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's acceptance rule is stated.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// worseBy is how far b is worse than a, as a share of a; negative when b is
// better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// oneRun runs this binary once in a fresh process, as the driver does, and
// returns the parsed run block.
func oneRun(workload string, seed uint64, seconds float64, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if block, ok := bytes.CutPrefix(line, []byte("run ")); ok {
			var res runResult
			if err := json.Unmarshal(block, &res); err != nil {
				return nil, err
			}
			return &res, nil
		}
	}
	return nil, fmt.Errorf("%s: no run block in output", workload)
}

// repeatCheck is the A/A self-check: two sets of n runs of each chosen
// workload on one seed. Within a set, each end-to-end metric's interquartile
// spread must stay within the metric's bound (setup_s excepted); between the
// sets, no median may be worse than the other set's by more than the bound;
// and everything that is a count must repeat exactly. It returns the
// process's exit code.
func repeatCheck(name string, seed uint64, seconds float64, n int, outDir string) int {
	names := workloadNames()
	if name != "all" && name != "" {
		names = strings.Split(name, ",")
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs at least 2 runs per set")
		return 2
	}
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Printf("  FAIL "+format+"\n", args...)
	}
	for _, wl := range names {
		var sets [2][]*runResult
		for s := range sets {
			for i := 0; i < n; i++ {
				res, err := oneRun(wl, seed, seconds, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				sets[s] = append(sets[s], res)
			}
		}
		first := sets[0][0]
		fmt.Printf("%s: 2 sets of %d runs, seed %d, schedule_fnv %s, attempted %d, retained %d\n",
			wl, n, seed, first.FNV, first.Attempted, first.Retained)
		for _, set := range sets {
			for _, r := range set {
				if r.FNV != first.FNV || r.Attempted != first.Attempted || r.Retained != first.Retained {
					fail("counts differ between runs: fnv %s attempted %d retained %d", r.FNV, r.Attempted, r.Retained)
				}
				if r.Failed != 0 || !r.Correct {
					fail("%d failed operations, correct=%v", r.Failed, r.Correct)
				}
			}
		}
		fmt.Printf("  %-26s %3s %14s %14s %14s %8s %8s %8s\n", "metric", "set", "median", "q1", "q3", "spread", "maxdev", "bound")
		for _, d := range endToEnd {
			var med [2]float64
			for s, set := range sets {
				vals := make([]float64, len(set))
				for i, r := range set {
					vals[i] = r.Metrics[d.Name]
				}
				med[s] = median(vals)
				q1, q3 := quartiles(vals)
				spread := (q3 - q1) / med[s]
				maxDev := 0.0
				for _, v := range vals {
					maxDev = max(maxDev, (v-med[s])/med[s], (med[s]-v)/med[s])
				}
				fmt.Printf("  %-26s %3d %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %7.0f%%\n",
					d.Name, s+1, med[s], q1, q3, 100*spread, 100*maxDev, 100*d.Bound)
				if spread > d.Bound && d.Name != "setup_s" {
					fail("%s set %d: spread %.2f%% exceeds the bound %.0f%%", d.Name, s+1, 100*spread, 100*d.Bound)
				}
			}
			drift := max(worseBy(d, med[0], med[1]), worseBy(d, med[1], med[0]))
			fmt.Printf("  %-26s medians differ by %.2f%%\n", d.Name, 100*drift)
			if drift > d.Bound {
				fail("%s: set medians differ by %.2f%%, bound %.0f%%", d.Name, 100*drift, 100*d.Bound)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("repeat: %d checks failed\n", bad)
		return 1
	}
	fmt.Println("repeat: every metric repeats within its bound")
	return 0
}
