// Command nwsbench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	nwsbench [flags] <experiment>...
//
// Experiments: table1 table2 table3 table4 table5 table6
//
//	fig1 fig2 fig3 fig4
//	ablation-mixture ablation-bias ablation-probelen
//	ablation-aggregation ablation-scheduler ablation-dynamic
//	ablation-selectwindow ablation-partition ablation-eq2weight
//	ext-smp ext-forecasters ext-residuals ext-cadence
//	all (every table and figure)
//
// Flags:
//
//	-duration  monitored run length in seconds (default 86400, the paper's 24h)
//	-week      Hurst-trace length in seconds (default 604800, one week)
//	-quick     shrink both for a fast smoke run
//	-save dir  export every computed series as CSV into dir
//	-html file write a self-contained HTML report with tables and SVG figures
//	-load dir  reuse traces previously exported with -save instead of resimulating
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nwscpu/internal/experiments"
	"nwscpu/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwsbench", flag.ContinueOnError)
	duration := fs.Float64("duration", 86400, "monitored run length in seconds")
	week := fs.Float64("week", 7*86400, "Hurst trace length in seconds")
	quick := fs.Bool("quick", false, "use a small, fast configuration")
	save := fs.String("save", "", "after running, export all computed series as CSV into this directory")
	htmlOut := fs.String("html", "", "write a self-contained HTML report (tables + SVG figures) to this file")
	load := fs.String("load", "", "preload runs from a directory previously written with -save")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiments requested; try: nwsbench all")
	}

	cfg := experiments.Config{Duration: *duration, WeekDuration: *week}
	if *quick {
		cfg = experiments.QuickConfig()
	}
	suite := experiments.NewSuite(cfg)
	if *load != "" {
		n, err := suite.Preload(*load)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "preloaded %d runs from %s\n", n, *load)
	}

	var expanded []string
	for _, n := range names {
		if n == "all" {
			expanded = append(expanded,
				"table1", "table2", "table3", "table4", "table5", "table6",
				"fig1", "fig2", "fig3", "fig4")
		} else {
			expanded = append(expanded, n)
		}
	}

	for _, name := range expanded {
		if err := runOne(suite, name, out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if *save != "" {
		n, err := suite.Export(*save)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "exported %d series to %s\n", n, *save)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := report.Generate(suite, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote HTML report to %s\n", *htmlOut)
	}
	return nil
}

func runOne(s *experiments.Suite, name string, out io.Writer) error {
	switch strings.ToLower(name) {
	case "table1":
		t, err := s.Table1()
		if err != nil {
			return err
		}
		fmt.Fprint(out, t)
	case "table2":
		t, err := s.Table2()
		if err != nil {
			return err
		}
		fmt.Fprint(out, t)
	case "table3":
		t, err := s.Table3()
		if err != nil {
			return err
		}
		fmt.Fprint(out, t)
	case "table4":
		rows, err := s.Table4()
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatTable4(rows))
	case "table5":
		t, err := s.Table5()
		if err != nil {
			return err
		}
		fmt.Fprint(out, t)
	case "table6":
		t, err := s.Table6()
		if err != nil {
			return err
		}
		fmt.Fprint(out, t)
	case "fig1":
		traces, err := s.Figure1()
		if err != nil {
			return err
		}
		for _, host := range experiments.FigureHosts {
			fmt.Fprintf(out, "Figure 1: CPU availability (load average method), %s\n", host)
			fmt.Fprint(out, experiments.AsciiPlot(traces[host], 96, 14, 0, 1))
		}
	case "fig2":
		acfs, err := s.Figure2()
		if err != nil {
			return err
		}
		for _, host := range experiments.FigureHosts {
			fmt.Fprintf(out, "Figure 2: first %d autocorrelations, %s\n", experiments.ACFLags, host)
			fmt.Fprint(out, experiments.FormatACF(acfs[host], 24))
		}
	case "fig3":
		poxes, err := s.Figure3()
		if err != nil {
			return err
		}
		for _, p := range poxes {
			fmt.Fprintf(out, "Figure 3: pox plot, %s (Hurst %.2f)\n", p.Host, p.Hurst)
			fmt.Fprint(out, experiments.FormatPox(p))
		}
	case "fig4":
		traces, err := s.Figure4()
		if err != nil {
			return err
		}
		for _, host := range experiments.FigureHosts {
			fmt.Fprintf(out, "Figure 4: 5-minute aggregated availability, %s\n", host)
			fmt.Fprint(out, experiments.AsciiPlot(traces[host], 96, 14, 0, 1))
		}
	case "ablation-mixture":
		a, err := s.AblationMixture("thing1")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a)
	case "ablation-bias":
		for _, host := range []string{"conundrum", "kongo"} {
			a, err := s.AblationBias(host)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, a)
		}
	case "ablation-probelen":
		a, err := s.AblationProbeLen("kongo", []float64{1.5, 3, 6, 12})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a)
	case "ablation-aggregation":
		a, err := s.AblationAggregation("thing2", []int{1, 6, 30, 60})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a)
	case "ablation-scheduler":
		a := experiments.AblationScheduler(12, 60, 900, 42)
		fmt.Fprintln(out, a)
	case "ablation-eq2weight":
		a, err := s.AblationEq2Weight()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a)
	case "ablation-selectwindow":
		a, err := s.AblationSelectWindow("thing2", []int{0, 20, 50, 200})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, a)
	case "ablation-partition":
		a := experiments.AblationPartition(900, 900, 42)
		fmt.Fprintln(out, a)
	case "ablation-dynamic":
		a := experiments.AblationDynamic(12, 60, 900, 42)
		fmt.Fprintln(out, a)
	case "ext-forecasters":
		rows, err := s.ExtensionForecasters(experiments.HostNames)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatForecasterExt(rows))
	case "ext-cadence":
		rows, err := s.ExtensionCadence("thing2", []float64{10, 30, 60})
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatCadence(rows))
	case "ext-residuals":
		rows, err := s.ExtensionResiduals()
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatResiduals(rows))
	case "ext-smp":
		rows, err := s.ExtensionSMP([]int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatSMP(rows))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
