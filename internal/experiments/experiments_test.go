package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nwscpu/internal/core"
)

// sharedSuite is built once: QuickConfig runs all six hosts in a few
// seconds, and every table test reuses the cached runs, as in production.
var (
	sharedOnce  sync.Once
	sharedSuite *Suite
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSuite = NewSuite(QuickConfig())
	})
	return sharedSuite
}

func TestNewSuiteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero config accepted")
		}
	}()
	NewSuite(Config{})
}

func TestUnknownHost(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.Short("nonsense"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := s.Week("nonsense"); err == nil {
		t.Fatal("unknown host accepted by Week")
	}
}

func TestShortRunCached(t *testing.T) {
	s := quickSuite(t)
	m1, err := s.Short("gremlin")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Short("gremlin")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Short did not cache")
	}
	if m1.Tests.Len() == 0 {
		t.Fatal("short run recorded no test processes")
	}
}

func TestTable1Shape(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Hosts) != 6 || len(tab.Main) != 6 {
		t.Fatalf("table shape: %d hosts, %d rows", len(tab.Hosts), len(tab.Main))
	}
	for host, row := range tab.Main {
		for _, m := range core.Methods {
			v := row.Get(m)
			if v < 0 || v > 1 {
				t.Fatalf("%s/%s error out of range: %v", host, m, v)
			}
		}
	}
	// The two anomalies must appear even at quick scale: passive methods
	// fail on conundrum, the hybrid fails on kongo.
	con := tab.Main["conundrum"]
	if con.LoadAvg < 0.2 || con.Vmstat < 0.2 {
		t.Fatalf("conundrum passive errors too small: %+v", con)
	}
	if con.Hybrid > con.LoadAvg/2 {
		t.Fatalf("conundrum hybrid error %v not far below load average %v", con.Hybrid, con.LoadAvg)
	}
	kongo := tab.Main["kongo"]
	if kongo.Hybrid < kongo.LoadAvg {
		t.Fatalf("kongo hybrid error %v should exceed load average %v", kongo.Hybrid, kongo.LoadAvg)
	}
	out := tab.String()
	if !strings.Contains(out, "conundrum") || !strings.Contains(out, "%") {
		t.Fatalf("rendered table malformed:\n%s", out)
	}
}

func TestTable2IncludesMeasurementError(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Paren == nil {
		t.Fatal("Table 2 missing parenthesized measurement errors")
	}
	// True forecasting error should be in the same ballpark as measurement
	// error (the paper's central observation).
	for _, host := range tab.Hosts {
		f := tab.Main[host].LoadAvg
		e := tab.Paren[host].LoadAvg
		if f > e+0.15 {
			t.Fatalf("%s: true forecast error %v much worse than measurement error %v", host, f, e)
		}
	}
	if !strings.Contains(tab.String(), "(") {
		t.Fatal("rendered Table 2 missing parentheses")
	}
}

func TestTable3SmallErrors(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// One-step-ahead prediction error is small on every host — under 10%
	// even at quick scale (the paper reports under 5% at full scale).
	for host, row := range tab.Main {
		for _, m := range core.Methods {
			if v := row.Get(m); v > 0.10 {
				t.Fatalf("%s/%s one-step error = %v, want < 0.10", host, m, v)
			}
		}
	}
}

func TestTable4HurstAndVariance(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Hurst < 0.3 || r.Hurst > 1.1 {
			t.Fatalf("%s Hurst = %v, outside plausible band", r.Host, r.Hurst)
		}
		for _, m := range core.Methods {
			if r.Orig.Get(m) < 0 || r.Agg.Get(m) < 0 {
				t.Fatalf("%s negative variance", r.Host)
			}
		}
	}
	if out := FormatTable4(rows); !strings.Contains(out, "Hurst") && !strings.Contains(out, "H") {
		t.Fatalf("rendered table malformed:\n%s", out)
	}
}

func TestTable5Aggregated(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Paren == nil {
		t.Fatal("Table 5 missing unaggregated reference")
	}
}

func TestTable6MediumTerm(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	for host, row := range tab.Main {
		for _, m := range core.Methods {
			if v := row.Get(m); v < 0 || v > 1 {
				t.Fatalf("%s/%s out of range: %v", host, m, v)
			}
		}
	}
}

func TestFigures(t *testing.T) {
	s := quickSuite(t)
	f1, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for host, trace := range f1 {
		if trace.Len() < 100 {
			t.Fatalf("Figure 1 %s trace too short: %d", host, trace.Len())
		}
	}
	f2, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for host, acf := range f2 {
		if len(acf) != ACFLags+1 {
			t.Fatalf("Figure 2 %s has %d lags", host, len(acf))
		}
		if acf[0] != 1 {
			t.Fatalf("Figure 2 %s ACF(0) = %v", host, acf[0])
		}
		// The load series is strongly autocorrelated at short lags.
		if acf[1] < 0.5 {
			t.Fatalf("Figure 2 %s ACF(1) = %v, want high", host, acf[1])
		}
	}
	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f3 {
		if len(r.Points) == 0 {
			t.Fatalf("Figure 3 %s has no pox points", r.Host)
		}
		if r.Hurst < 0.3 || r.Hurst > 1.1 {
			t.Fatalf("Figure 3 %s Hurst = %v", r.Host, r.Hurst)
		}
		if !strings.Contains(FormatPox(r), "pox plot") {
			t.Fatal("FormatPox malformed")
		}
	}
	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for host, agg := range f4 {
		if agg.Len() < 3 {
			t.Fatalf("Figure 4 %s aggregated trace too short: %d", host, agg.Len())
		}
	}
}

func TestAsciiPlot(t *testing.T) {
	s := quickSuite(t)
	f1, _ := s.Figure1()
	out := AsciiPlot(f1["thing1"], 60, 10, 0, 1)
	if !strings.Contains(out, "*") {
		t.Fatalf("plot has no points:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 11 {
		t.Fatalf("plot has %d lines, want 11", lines)
	}
	if got := AsciiPlot(f1["thing1"], 0, 10, 0, 1); !strings.Contains(got, "empty") {
		t.Fatal("degenerate plot parameters accepted")
	}
}

func TestFormatACF(t *testing.T) {
	out := FormatACF([]float64{1, 0.5, -0.2}, 1)
	if !strings.Contains(out, "lag    0") || !strings.Contains(out, "+1.000") {
		t.Fatalf("FormatACF malformed:\n%s", out)
	}
	if FormatACF([]float64{1}, 0) == "" {
		t.Fatal("stride 0 should be clamped, not crash")
	}
}

func TestAblationMixture(t *testing.T) {
	s := quickSuite(t)
	a, err := s.AblationMixture("thing1")
	if err != nil {
		t.Fatal(err)
	}
	if a.EngineMAE <= 0 || a.BestMAE <= 0 {
		t.Fatalf("degenerate ablation: %+v", a)
	}
	// The NWS claim: the mixture tracks the best single member.
	if a.EngineMAE > a.BestMAE*1.3 {
		t.Fatalf("engine MAE %v far above best member %v", a.EngineMAE, a.BestMAE)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAblationBias(t *testing.T) {
	s := quickSuite(t)
	a, err := s.AblationBias("conundrum")
	if err != nil {
		t.Fatal(err)
	}
	if a.WithBias > a.WithoutBias/2 {
		t.Fatalf("bias should cut the conundrum error sharply: %+v", a)
	}
}

func TestExtensionSMP(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.ExtensionSMP([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	one, four := rows[0], rows[1]
	if one.CPUs != 1 || four.CPUs != 4 {
		t.Fatalf("CPU counts wrong: %+v", rows)
	}
	// On a uniprocessor the two estimators coincide.
	if abs(one.NaiveErr-one.SMPErr) > 1e-9 {
		t.Fatalf("N=1 estimators differ: %+v", one)
	}
	// On 4 CPUs, naive Eq.1 must be far worse than the corrected form.
	if four.NaiveErr < 2*four.SMPErr {
		t.Fatalf("SMP correction ineffective: %+v", four)
	}
	if _, err := s.ExtensionSMP([]int{0}); err == nil {
		t.Fatal("CPU count 0 accepted")
	}
	if out := FormatSMP(rows); !strings.Contains(out, "CPUs") {
		t.Fatalf("FormatSMP malformed:\n%s", out)
	}
}

func TestExport(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.Short("gremlin"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Week("thing1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := s.Export(dir)
	if err != nil {
		t.Fatal(err)
	}
	// At least gremlin's 3 methods + tests and thing1's week trace; the
	// shared suite may hold more from other tests.
	if n < 5 {
		t.Fatalf("exported %d files, want >= 5", n)
	}
	for _, name := range []string{"gremlin_short_load_average.csv", "gremlin_short_tests.csv", "thing1_week.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(string(b), "t,value\n") {
			t.Fatalf("%s: bad header", name)
		}
	}
	if _, err := s.Export("/proc/not/writable"); err == nil {
		t.Fatal("unwritable export dir accepted")
	}
}

func TestAblationEq2Weight(t *testing.T) {
	s := quickSuite(t)
	a, err := s.AblationEq2Weight()
	if err != nil {
		t.Fatal(err)
	}
	// On a kernel-bound host the w=1 weighting must be the worst: it
	// promises system-time shares a new process cannot actually obtain.
	if a.Full <= a.UserFraction {
		t.Fatalf("w=1 error %v not worse than paper weighting %v", a.Full, a.UserFraction)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAblationSelectWindow(t *testing.T) {
	s := quickSuite(t)
	a, err := s.AblationSelectWindow("gremlin", []int{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Errors) != 2 {
		t.Fatalf("errors = %v", a.Errors)
	}
	for _, e := range a.Errors {
		if e <= 0 || e > 0.5 {
			t.Fatalf("implausible error: %v", a.Errors)
		}
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAblationPartition(t *testing.T) {
	a := AblationPartition(120, 200, 9)
	if a.ForecastMakespan <= 0 || a.EqualMakespan <= 0 {
		t.Fatalf("degenerate: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPreloadRoundTrip(t *testing.T) {
	s := quickSuite(t)
	// Ensure at least one short run and one week trace exist, then export.
	if _, err := s.Short("gremlin"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Week("gremlin"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := s.Export(dir); err != nil {
		t.Fatal(err)
	}

	fresh := NewSuite(QuickConfig())
	n, err := fresh.Preload(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("preloaded %d runs, want >= 2", n)
	}
	// The preloaded run must produce identical analysis results.
	orig, err := s.Short("gremlin")
	if err != nil {
		t.Fatal(err)
	}
	imported, err := fresh.Short("gremlin")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range core.Methods {
		e1, err1 := core.MeasurementError(orig.Measurements[method], orig.Tests)
		e2, err2 := core.MeasurementError(imported.Measurements[method], imported.Tests)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v %v", err1, err2)
		}
		if e1 != e2 {
			t.Fatalf("%s: imported error %v != original %v", method, e2, e1)
		}
	}
	// Preload from an empty directory loads nothing but does not fail.
	if n, err := NewSuite(QuickConfig()).Preload(t.TempDir()); err != nil || n != 0 {
		t.Fatalf("empty preload: %d, %v", n, err)
	}
}

func TestAblationDynamic(t *testing.T) {
	a := AblationDynamic(4, 20, 200, 9)
	if a.Static.Makespan <= 0 || a.Dynamic.Makespan <= 0 {
		t.Fatalf("degenerate: %+v", a)
	}
	total := 0
	for _, d := range a.Dynamic.Dispatches {
		total += d
	}
	if total != 4 {
		t.Fatalf("dynamic dispatched %d tasks, want 4", total)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestExtensionCadence(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.ExtensionCadence("gremlin", []float64{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Points <= rows[1].Points {
		t.Fatalf("faster cadence should collect more points: %+v", rows)
	}
	for _, r := range rows {
		if r.ProbeShare <= 0 || r.ProbeShare > 0.2 {
			t.Fatalf("implausible probe cost: %+v", r)
		}
	}
	for _, r := range rows {
		if r.MeasErr < 0 || r.MeasErr > 1 || r.OneStepErr < 0 || r.OneStepErr > 1 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	if _, err := s.ExtensionCadence("gremlin", []float64{0}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := s.ExtensionCadence("bogus", []float64{10}); err == nil {
		t.Fatal("unknown host accepted")
	}
	if !strings.Contains(FormatCadence(rows), "sensing-period") {
		t.Fatal("FormatCadence malformed")
	}
}

func TestExtensionResiduals(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.ExtensionResiduals()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 hosts x 3 methods
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	for _, r := range rows {
		if r.KS.D < 0 || r.KS.D > 1 || r.KS.P < 0 || r.KS.P > 1 {
			t.Fatalf("degenerate KS result: %+v", r)
		}
	}
	// The paper's claim: on most host/method pairs forecasting does not
	// change the error distribution. Require a clear majority.
	same := 0
	for _, r := range rows {
		if !r.Significant() {
			same++
		}
	}
	if same < 12 {
		t.Fatalf("only %d/18 pairs have indistinguishable residuals", same)
	}
	if !strings.Contains(FormatResiduals(rows), "KS comparison") {
		t.Fatal("FormatResiduals malformed")
	}
}

func TestExtensionForecasters(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.ExtensionForecasters([]string{"thing1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.DefaultMAE <= 0 || r.ExtendedMAE <= 0 {
		t.Fatalf("degenerate MAEs: %+v", r)
	}
	// The extended bank strictly contains the default bank, and the mixture
	// tracks its best member, so it should never be substantially worse.
	if r.ExtendedMAE > r.DefaultMAE*1.1 {
		t.Fatalf("extended bank much worse: %+v", r)
	}
	if !strings.Contains(FormatForecasterExt(rows), "extended MAE") {
		t.Fatal("FormatForecasterExt malformed")
	}
	if _, err := s.ExtensionForecasters([]string{"nonsense"}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestAblationAggregation(t *testing.T) {
	s := quickSuite(t)
	a, err := s.AblationAggregation("gremlin", []int{1, 6, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Errors) != 3 {
		t.Fatalf("errors = %v", a.Errors)
	}
	if _, err := s.AblationAggregation("gremlin", []int{100000}); err == nil {
		t.Fatal("absurd aggregation level accepted")
	}
}
