package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nwscpu/internal/core"
	"nwscpu/internal/series"
)

// sortedKeys returns m's keys in sorted order, so exports walk hosts
// deterministically instead of in map-iteration order — same-seed runs
// must produce their artifacts in the same sequence, byte for byte.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Export writes every series the suite has cached so far to dir as CSV
// files (creating dir if needed), one file per series:
//
//	<host>_short_<method>.csv    monitored 10-second availability series
//	<host>_short_tests.csv       ground-truth test-process observations
//	<host>_medium_<method>.csv   medium-term run series
//	<host>_medium_tests.csv
//	<host>_week.csv              week-long load-average trace
//
// Only runs that have already been computed (via the table/figure methods
// or Preload) are written; Export never triggers new simulations. It
// returns the number of files written.
func (s *Suite) Export(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("experiments: export dir: %w", err)
	}
	written := 0
	write := func(name string, sr *series.Series) error {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sr.WriteCSV(f); err != nil {
			return err
		}
		written++
		return f.Close()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, kind := range []struct {
		label string
		runs  map[string]*core.Monitor
	}{
		{"short", s.short},
		{"medium", s.medium},
	} {
		for _, host := range sortedKeys(kind.runs) {
			m := kind.runs[host]
			for _, method := range core.Methods {
				if err := write(fmt.Sprintf("%s_%s_%s", host, kind.label, method),
					m.Measurements[method]); err != nil {
					return written, err
				}
			}
			if err := write(fmt.Sprintf("%s_%s_tests", host, kind.label), m.Tests); err != nil {
				return written, err
			}
		}
	}
	for _, host := range sortedKeys(s.week) {
		if err := write(host+"_week", s.week[host]); err != nil {
			return written, err
		}
	}
	return written, nil
}
