package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeSeconds scales every committed count to 2% of the real run.
const smokeSeconds = 0.02 * baseSeconds

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: smokeSeconds, trace: trace, setups: 1, outDir: t.TempDir()}
}

// pinnedFNV is the checksum of the request schedule of seed 1 at the smoke
// scale (warm-up + 10 passes, two client goroutines): the same seed must mean
// the same work on both sides of any comparison. A change here means the
// generator changed, and every recorded baseline with it.
var pinnedFNV = map[string]string{
	"wire_ingest":     "a121d6ad07365c24",
	"history_fetch":   "f9ebbeeb6816215f",
	"forecast_serve":  "f989cac5e06d144a",
	"forecast_push":   "b84d9b050a91a5f6",
	"durable_restart": "55aa08673859b605",
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			res, err := run(smokeConfig(t, wl, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (present %v), want finite and positive", d.Name, v, ok)
				}
			}
			if clientCount() == 2 && res.FNV != pinnedFNV[wl] {
				t.Errorf("schedule_fnv = %s, pinned %s", res.FNV, pinnedFNV[wl])
			}
		})
	}
}

// layersOf lists the per-layer metrics that must be positive on a workload;
// the rest are reported as 0 there.
var layersOf = map[string][]string{
	"wire_ingest": {"wire.request.count", "wire.request.self_ns_per_point", "wire.request.p99_us",
		"memory.handle.count", "memory.handle.store_ns_per_point", "memory.direct_store_ns_per_point"},
	"history_fetch": {"memory.handle.count", "memory.handle.store_ns_per_point", "memory.handle.fetch_ns_per_point",
		"replica.call.self_us_p50", "client.call.self_us_p50", "replica.tail.p50_us", "replica.range.p50_us",
		"replica.store.p50_us", "replica.request.p99_us"},
	"forecast_serve": {"forecaster.warm_s", "forecaster.refresh.self_ns_per_series", "forecaster.fetch_batch.ns_per_series",
		"forecaster.poll.ns_per_op", "forecaster.cache_hit_ratio", "engine.update.ns_per_point", "engine.share_of_pass"},
	"forecast_push": {"forecaster.warm_s", "forecaster.refresh.self_ns_per_series", "engine.update.ns_per_point",
		"push.deliver.p50_us", "push.deliver.p99_us", "push.ns_per_push"},
	"durable_restart": {"persist.handle.ns_per_point", "persist.log_overhead_ns_per_point", "persist.open.ns_per_point",
		"persist.recovery_s", "persist.close_s", "persist.files", "persist.disk_bytes_per_point"},
}

func TestSmokeTraced(t *testing.T) {
	everywhere := []string{"simos.tracegen_s", "memory.prefill_s", "proc.allocs_per_op", "proc.alloc_bytes_per_op",
		"trace.overhead_ratio", "trace.coverage_ratio"}
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			cfg := smokeConfig(t, wl, true)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			for _, d := range perLayer {
				v, ok := res.Metrics[d.Name]
				if ok && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) && d.Name != "persist.log_overhead_ns_per_point" {
					t.Errorf("%s = %v, want finite and not negative", d.Name, v)
				}
			}
			for _, name := range append(everywhere, layersOf[wl]...) {
				if res.Metrics[name] <= 0 {
					t.Errorf("%s = %v, want positive on %s", name, res.Metrics[name], wl)
				}
			}
			if res.Metrics["trace.spans_dropped"] != 0 {
				t.Errorf("trace.spans_dropped = %v", res.Metrics["trace.spans_dropped"])
			}
			if _, err := os.Stat(cfg.outDir + "/" + wl + ".trace.json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestVerificationCatchesLoss holds the memory against a ledger that is one
// pass ahead of it, as if the program had acknowledged and then lost a pass.
func TestVerificationCatchesLoss(t *testing.T) {
	cfg := smokeConfig(t, "wire_ingest", false)
	w := newWireIngest(cfg)
	var st setupTimes
	if err := w.setup(&st); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.pass(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(1); err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
	if err := w.verify(2); err == nil {
		t.Fatal("verification accepted a memory that is one pass short of the schedule")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %v, the counts are calibrated for %v", doc.RunSeconds, baseSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, program has %+v", i, doc.Workloads[i], w)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d = %+v, program has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 22, 2, 16, 4, 37, 7, 29, 11})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSummarizeSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: spReplicaTail, Lane: 0, Parent: noParent, Trace: 7, Start: 0, End: 100, Units: 64},
		{Name: spClientCall, Lane: 0, Parent: 0, Trace: 7, Start: 10, End: 90},
		{Name: spMemoryFetch, Lane: laneServer, Parent: 1, Trace: 7, Start: 40, End: 60, Units: 64},
		{Name: spWireRequest, Lane: 1, Parent: noParent, Trace: 9, Start: 0, End: 50, Units: 3},
		{Name: spWireRequest, Lane: 1, Parent: noParent, Trace: 10, Start: 20, End: 80, Units: 3},
		{Name: spMemoryStore, Lane: laneServer, Parent: parentByTrace, Trace: 10, Start: 30, End: 40, Units: 3},
	}
	sum := summarize(spans, 2)
	if got := sum.get(spReplicaTail).SelfNs; got != 20 {
		t.Errorf("replica.tail self = %d, want 20", got)
	}
	if got := sum.get(spClientCall).SelfNs; got != 60 {
		t.Errorf("client.call self = %d, want 60", got)
	}
	if got := sum.get(spWireRequest).SelfNs; got != 100 {
		t.Errorf("wire.request self = %d, want 100 (by-trace child of the second request)", got)
	}
	if spans[5].Parent != 4 {
		t.Errorf("by-trace parent resolved to %d, want 4", spans[5].Parent)
	}
	// lane 0 covers [0,100), lane 1 the union [0,80).
	if sum.CoveredNs != 180 {
		t.Errorf("covered = %d, want 180", sum.CoveredNs)
	}
}
