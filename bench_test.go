// Package nwscpu_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation.
//
// Each BenchmarkTableN / BenchmarkFigN first builds its result once outside
// the timer, which collects the simulated traces it reads (they stand in for
// the paper's 24-hour trace collection), and then times the analysis that
// reduces the traces to the published table or figure, logging the rendered
// result so `go test -bench .` output contains the paper-shaped rows.
//
// Scale is controlled by NWSBENCH_SCALE:
//
//	NWSBENCH_SCALE=quick  4000 s runs (CI smoke)
//	default               6-hour runs, 2-day Hurst traces
//	NWSBENCH_SCALE=paper  24-hour runs, 1-week Hurst traces (the paper's)
package nwscpu_test

import (
	"os"
	"sync"
	"testing"

	"nwscpu/internal/experiments"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		var cfg experiments.Config
		switch os.Getenv("NWSBENCH_SCALE") {
		case "quick":
			cfg = experiments.QuickConfig()
		case "paper":
			cfg = experiments.Config{Duration: 86400, WeekDuration: 7 * 86400}
		default:
			cfg = experiments.Config{Duration: 6 * 3600, WeekDuration: 2 * 86400}
		}
		suite = experiments.NewSuite(cfg)
	})
	return suite
}

func BenchmarkTable1(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table1(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable2(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table2(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable3(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table3(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable4(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table4(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatTable4(rows)
	}
	b.Log("\n" + out)
}

func BenchmarkTable5(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table5(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable6(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Table6(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	b.Log("\n" + out)
}

func BenchmarkFig1(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Figure1(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		traces, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		out = ""
		for _, host := range experiments.FigureHosts {
			out += host + "\n" + experiments.AsciiPlot(traces[host], 80, 12, 0, 1)
		}
	}
	b.Log("\n" + out)
}

func BenchmarkFig2(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Figure2(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acf1 float64
	for i := 0; i < b.N; i++ {
		acfs, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		acf1 = acfs["thing1"][1]
	}
	b.Logf("thing1 lag-1 autocorrelation: %.3f (paper: slow decay over 360 lags)", acf1)
}

func BenchmarkFig3(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Figure3(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res []experiments.PoxResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.Logf("%s: Hurst %.2f from %d pox points (paper: 0.70 for both)", r.Host, r.Hurst, len(r.Points))
	}
}

func BenchmarkFig4(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Figure4(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		traces, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		out = ""
		for _, host := range experiments.FigureHosts {
			out += host + "\n" + experiments.AsciiPlot(traces[host], 80, 12, 0, 1)
		}
	}
	b.Log("\n" + out)
}

func BenchmarkAblationMixture(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.AblationMixture("thing1"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationMixture("thing1")
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationBias(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationBias("conundrum")
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationProbeLen(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationProbeLen("kongo", []float64{1.5, 6})
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationAggregation(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.AblationAggregation("thing2", []int{1, 6, 30, 60}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationAggregation("thing2", []int{1, 6, 30, 60})
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkExtensionSMP(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionSMP([]int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatSMP(rows)
	}
	b.Log("\n" + out)
}

func BenchmarkExtensionForecasters(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.ExtensionForecasters(experiments.FigureHosts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionForecasters(experiments.FigureHosts)
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatForecasterExt(rows)
	}
	b.Log("\n" + out)
}

func BenchmarkAblationScheduler(b *testing.B) {
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a := experiments.AblationScheduler(8, 40, 600, 42)
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkExtensionResiduals(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.ExtensionResiduals(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionResiduals()
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatResiduals(rows)
	}
	b.Log("\n" + out)
}

func BenchmarkAblationEq2Weight(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationEq2Weight()
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationPartition(b *testing.B) {
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a := experiments.AblationPartition(600, 600, 42)
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationSelectWindow(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.AblationSelectWindow("thing2", []int{0, 50}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := s.AblationSelectWindow("thing2", []int{0, 50})
		if err != nil {
			b.Fatal(err)
		}
		out = a.String()
	}
	b.Log(out)
}

func BenchmarkAblationDynamic(b *testing.B) {
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a := experiments.AblationDynamic(8, 40, 600, 42)
		out = a.String()
	}
	b.Log(out)
}
