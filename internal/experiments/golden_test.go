package experiments

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nwscpu/internal/core"
	"nwscpu/internal/series"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite the selected scale's golden file from the current code")
	paperScale   = flag.Bool("paper", false, "check testdata/paper.golden at the paper's 24 h / 1 week scale instead of testdata/quick.golden")
)

// goldenCells renders every cell of Tables 1–6 of s as exact
// float64 bits, plus an FNV-64 of each series behind Figures 1–4, one cell
// per line: "<table> <host> <method> <cell> <value>".
func goldenCells(t *testing.T, s *Suite) []byte {
	t.Helper()
	var b bytes.Buffer
	bits := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	errorTable := func(name string, tab *ErrorTable, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, host := range tab.Hosts {
			for _, method := range core.Methods {
				fmt.Fprintf(&b, "%s %s %s main %s\n", name, host, method, bits(tab.Main[host].Get(method)))
				if tab.Paren != nil {
					fmt.Fprintf(&b, "%s %s %s paren %s\n", name, host, method, bits(tab.Paren[host].Get(method)))
				}
			}
		}
	}
	tab, err := s.Table1()
	errorTable("table1", tab, err)
	tab, err = s.Table2()
	errorTable("table2", tab, err)
	tab, err = s.Table3()
	errorTable("table3", tab, err)
	rows, err := s.Table4()
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "table4 %s - hurst %s\n", r.Host, bits(r.Hurst))
		for _, method := range core.Methods {
			fmt.Fprintf(&b, "table4 %s %s orig %s\n", r.Host, method, bits(r.Orig.Get(method)))
			fmt.Fprintf(&b, "table4 %s %s agg %s\n", r.Host, method, bits(r.Agg.Get(method)))
		}
	}
	tab, err = s.Table5()
	errorTable("table5", tab, err)
	tab, err = s.Table6()
	errorTable("table6", tab, err)

	// The figures plot load-average series; each hashes every float it
	// draws, in order.
	hashLine := func(name, host, cell string, vs ...float64) {
		h := fnv.New64()
		var w [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		fmt.Fprintf(&b, "%s %s %s %s %016x\n", name, host, core.MethodLoadAvg, cell, h.Sum64())
	}
	seriesFloats := func(s *series.Series) []float64 {
		return append(s.Times(), s.Values()...)
	}
	f1, err := s.Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	f2, err := s.Figure2()
	if err != nil {
		t.Fatalf("figure2: %v", err)
	}
	f3, err := s.Figure3()
	if err != nil {
		t.Fatalf("figure3: %v", err)
	}
	f4, err := s.Figure4()
	if err != nil {
		t.Fatalf("figure4: %v", err)
	}
	for _, host := range FigureHosts {
		hashLine("fig1", host, "series", seriesFloats(f1[host])...)
	}
	for _, host := range FigureHosts {
		hashLine("fig2", host, "acf", f2[host]...)
	}
	for _, r := range f3 {
		lengths := map[float64]bool{} // the fit's sample: one mean per segment length
		for _, p := range r.Points {
			lengths[p.LogD] = true
		}
		vs := []float64{r.Hurst, r.Fit.Slope, r.Fit.Intercept, r.Fit.R2, float64(len(lengths))}
		for _, p := range r.Points {
			vs = append(vs, p.LogD, p.LogRS)
		}
		hashLine("fig3", r.Host, "pox", vs...)
	}
	for _, host := range FigureHosts {
		hashLine("fig4", host, "series", seriesFloats(f4[host])...)
	}
	return b.Bytes()
}

// TestPaperGolden pins Tables 1–6 and Figures 1–4 bit for bit: at
// QuickConfig in testdata/quick.golden, and with -paper at the paper's
// scale (24 h monitored runs, 1 week Hurst traces) in testdata/paper.golden,
// which `make paper-golden` checks. Rewrite the selected file with `go test
// ./internal/experiments -run TestPaperGolden -update [-paper]` only when a
// change is meant to move a table, and say which cells moved and why.
func TestPaperGolden(t *testing.T) {
	s, goldenPath := quickSuite(t), "testdata/quick.golden"
	if *paperScale {
		s, goldenPath = NewSuite(Config{Duration: 86400, WeekDuration: 7 * 86400}), "testdata/paper.golden"
	}
	got := goldenCells(t, s)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report every cell that moved, keyed by table, host, method and cell.
	wantCells := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			wantCells[line[:i]] = line[i+1:]
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(got)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		key, v := line[:i], line[i+1:]
		w, ok := wantCells[key]
		delete(wantCells, key)
		f := strings.Fields(key)
		switch {
		case !ok:
			t.Errorf("%s host %s method %s %s: new cell %s", f[0], f[1], f[2], f[3], v)
		case w != v:
			t.Errorf("%s host %s method %s %s: got %s, golden %s", f[0], f[1], f[2], f[3], v, w)
		}
	}
	for key := range wantCells {
		t.Errorf("%s: cell missing", key)
	}
	if !t.Failed() {
		t.Errorf("%s: same cells in a different order", goldenPath)
	}
}
