package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("no experiments accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "bogus"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nonsense"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunQuickTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "table3", "ablation-aggregation"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "kongo") {
		t.Fatalf("missing table output:\n%s", out)
	}
	if !strings.Contains(out, "aggregation ablation") {
		t.Fatalf("missing ablation output:\n%s", out)
	}
}

func TestRunQuickFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "fig2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "autocorrelations") {
		t.Fatalf("missing figure output:\n%s", buf.String())
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	html := filepath.Join(dir, "report.html")
	csvDir := filepath.Join(dir, "series")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-save", csvDir, "-html", html, "table1"}, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<svg") {
		t.Fatal("HTML report has no charts")
	}
	files, err := os.ReadDir(csvDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("CSV export empty: %v %v", len(files), err)
	}
}

// TestRunAllBranches exercises every experiment dispatch at quick scale in
// one suite (the suite caches its runs, so this stays fast).
func TestRunAllBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-scale suite")
	}
	var buf bytes.Buffer
	args := []string{"-quick",
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig1", "fig2", "fig3", "fig4",
		"ablation-mixture", "ablation-bias", "ablation-probelen",
		"ablation-aggregation", "ablation-eq2weight", "ablation-selectwindow",
		"ext-smp", "ext-residuals", "ext-forecasters", "ext-cadence",
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Figure 1", "Figure 2", "pox plot", "Figure 4",
		"mixture ablation", "bias ablation", "probe-length ablation",
		"aggregation ablation", "Eq.2 weighting", "selection-window",
		"multiprocessors", "KS comparison", "extended MAE", "sensing-period",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}
