package grid

import (
	"bytes"
	"testing"
)

// testConfig is small enough to run under -race in CI but still covers
// every scenario (14 hosts = 2 per catalog entry).
func testConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Hosts = 14
	cfg.Duration = 100
	return cfg
}

func render(t *testing.T, r *Report) (text, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := r.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestRunSameSeedByteIdentical is the harness's core guarantee: two runs
// with the same seed and configuration produce byte-identical text and
// JSON reports — across GOMAXPROCS, worker counts, and map iteration — and
// a different seed produces a different report.
func TestRunSameSeedByteIdentical(t *testing.T) {
	cfgA := testConfig(7)
	r1, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig(7)
	cfgB.Workers = 1 // parallelism must not leak into the report
	r2, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t1, j1 := render(t, r1)
	t2, j2 := render(t, r2)
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same seed produced different text reports:\n--- run1 ---\n%s\n--- run2 ---\n%s", t1, t2)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed produced different JSON reports")
	}

	r3, err := Run(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	t3, _ := render(t, r3)
	if bytes.Equal(t1, t3) {
		t.Fatalf("different seeds produced identical reports")
	}
}

// TestReportShape pins the report invariants the emitters and consumers
// rely on: scenarios in catalog order with every regime populated, sorted
// member tables, one serving point per load factor, one verdict per factor
// plus one per scenario, and consistent totals.
func TestReportShape(t *testing.T) {
	cfg := testConfig(3)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion {
		t.Fatalf("schema %q, want %q", r.Schema, SchemaVersion)
	}
	cat := catalog()
	if len(r.Scenarios) != len(cat) {
		t.Fatalf("%d scenarios, want %d", len(r.Scenarios), len(cat))
	}
	for i, sc := range r.Scenarios {
		if sc.Name != cat[i].name {
			t.Fatalf("scenario %d = %q, want %q", i, sc.Name, cat[i].name)
		}
		if sc.Hosts == 0 {
			t.Fatalf("scenario %q got no hosts", sc.Name)
		}
		if len(sc.Members) == 0 {
			t.Fatalf("scenario %q has an empty member table", sc.Name)
		}
		for j := 1; j < len(sc.Members); j++ {
			a, b := sc.Members[j-1], sc.Members[j]
			if a.MAE > b.MAE || (a.MAE == b.MAE && a.Name >= b.Name) {
				t.Fatalf("scenario %q members not sorted at %d: %+v %+v", sc.Name, j, a, b)
			}
		}
		if sc.MeanAvail < 0 || sc.MeanAvail > 1 {
			t.Fatalf("scenario %q mean availability %v out of range", sc.Name, sc.MeanAvail)
		}
	}
	if len(r.Serving) != len(cfg.LoadFactors) {
		t.Fatalf("%d serving points, want %d", len(r.Serving), len(cfg.LoadFactors))
	}
	if want := len(cfg.LoadFactors) + len(cat); len(r.Verdicts) != want {
		t.Fatalf("%d verdicts, want %d", len(r.Verdicts), want)
	}
	rounds := r.Totals.Rounds
	if got, want := r.Totals.PointsStored, uint64(3*cfg.Hosts*rounds); got != want {
		t.Fatalf("points stored %d, want %d", got, want)
	}
	if got, want := r.Totals.Subscriptions, (cfg.Hosts+cfg.SubEvery-1)/cfg.SubEvery; got != want {
		t.Fatalf("subscriptions %d, want %d", got, want)
	}
	if r.Totals.Pushes == 0 || r.Totals.CacheHits == 0 {
		t.Fatalf("read plane looks dead: %+v", r.Totals)
	}
}

// TestVerdictsSplitOnServeRate pins the SLO machinery: with a generous
// service rate the smallest factor passes; shrinking the rate to overload
// must flip the largest factor to FAIL (the report always carries at least
// one pass and one fail across its shipped default configs this way).
func TestVerdictsSplitOnServeRate(t *testing.T) {
	cfg := testConfig(5)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pass, fail bool
	for _, v := range r.Verdicts {
		if v.Pass {
			pass = true
		} else {
			fail = true
		}
	}
	if !pass || !fail {
		t.Fatalf("verdicts not mixed (pass=%v fail=%v): %+v", pass, fail, r.Verdicts)
	}
	first := r.Verdicts[0] // serve@ smallest factor under the default rate
	if !first.Pass {
		t.Fatalf("smallest load factor failed under default serve rate: %+v", first)
	}

	cfg2 := testConfig(5)
	cfg2.ServeRate = 1 // hopeless capacity: every factor overloads
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg2.LoadFactors {
		if v := r2.Verdicts[i]; v.Pass {
			t.Fatalf("serving verdict passed at 1 op/s capacity: %+v", v)
		}
	}
	if r2.Serving[len(r2.Serving)-1].Utilization <= 1 {
		t.Fatalf("overloaded run reports utilization %v <= 1", r2.Serving[len(r2.Serving)-1].Utilization)
	}
}

// TestQueueModel checks the batch-drain FIFO model against hand-computed
// values: a stable batch drains within its interval (p99 ~ batch/rate), an
// overloaded one accumulates backlog across the horizon.
func TestQueueModel(t *testing.T) {
	zero := simulateServe(0, 10, 1, 1000, serveModelIntervals)
	if zero.P99Ms != 0 || zero.Utilization != 0 {
		t.Fatalf("empty load not zero: %+v", zero)
	}

	// 1000 ops burst at 10000 ops/s: latencies are i/mu for i = 1..1000,
	// so p50 ~ 50 ms, p99 ~ 99 ms, and no backlog carries over.
	st := simulateServe(1000, 10, 1, 10000, serveModelIntervals)
	if st.Utilization != 0.01 {
		t.Fatalf("utilization %v, want 0.01", st.Utilization)
	}
	approx := func(got, want float64) bool { return got > want-1 && got < want+1 }
	if !approx(st.P50Ms, 50) || !approx(st.P90Ms, 90) || !approx(st.P99Ms, 99) {
		t.Fatalf("stable quantiles off: %+v", st)
	}
	if !(st.P50Ms < st.P90Ms && st.P90Ms < st.P99Ms) {
		t.Fatalf("quantiles not monotone: %+v", st)
	}

	// Same burst at 50 ops/s: only 500 of 1000 drain per interval, so the
	// backlog grows by 500 each round and late intervals see latencies of
	// many interval lengths.
	ov := simulateServe(1000, 10, 1, 50, serveModelIntervals)
	if ov.Utilization != 2 {
		t.Fatalf("overload utilization %v, want 2", ov.Utilization)
	}
	if ov.P99Ms <= st.P99Ms*10 {
		t.Fatalf("overload p99 %v not catastrophically above stable %v", ov.P99Ms, st.P99Ms)
	}
}

// TestStealAndChaoticScenariosBite ensures the two new regimes actually
// shape the measured series: a steal-scenario host must report lower mean
// availability than the same host without its steal schedule would explain
// away, and the chaotic scenario must not degenerate to a constant.
func TestStealAndChaoticScenariosBite(t *testing.T) {
	r, err := Run(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScenarioResult{}
	for _, sc := range r.Scenarios {
		byName[sc.Name] = sc
	}
	if sc := byName["steal"]; sc.MeanAvail > 0.97 {
		t.Fatalf("steal scenario mean availability %.4f: the schedule is not biting", sc.MeanAvail)
	}
	if sc := byName["chaotic"]; sc.EngineMAE == 0 {
		t.Fatalf("chaotic scenario produced a perfectly predictable series")
	}
	if sc := byName["nicehog"]; sc.MeanAvail > 0.9 {
		t.Fatalf("nicehog scenario mean availability %.4f: the soaker fixture is missing", sc.MeanAvail)
	}
}
