package prochost

import (
	"strconv"
	"strings"
	"testing"
)

// Fuzzing the /proc parsers: they must never panic and must either return an
// error or a well-formed result on arbitrary input. Run with
// `go test -fuzz FuzzParseLoadAvg ./internal/prochost` for exploration; the
// seed corpus below runs as part of the regular test suite.

func FuzzParseLoadAvg(f *testing.F) {
	for _, seed := range []string{
		"0.52 0.58 0.59 2/345 12345",
		"",
		"1 2 3 4/5 6",
		"a b c d/e f",
		"0.5 0.5 0.5 12 3",
		"9e999 0 0 1/1 1",
		"0.1 0.1 0.1 -2/-5 0",
		"nan 0 0 1/1 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, content string) {
		li, err := ParseLoadAvg(content)
		if err != nil {
			return
		}
		if li.Load1 != li.Load1 { // NaN check without importing math
			t.Fatalf("parsed NaN load from %q", content)
		}
	})
}

func FuzzParseStat(f *testing.F) {
	for _, seed := range []string{
		"cpu  74608 2520 24433 1117073 6176 4054 0 0 0 0\ncpu0 1 1 1 1\n",
		"cpu 1 2 3 4",
		"",
		"cpu 1 2 3",
		"cpu a b c d",
		"intr 5\ncpu 1 2 3 4\n",
		"cpu  5000 300 2000 90000 400 50 60 70 1200 100\n", // guest running
		"cpu inf 0 0 0",
		"cpu 1e308 1e308 -1e308 -1e308 -1e308 -1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, content string) {
		st, err := ParseStat(content)
		if err != nil {
			return
		}
		// Total is the first eight columns (user..steal) summed in the
		// order Total adds them; guest and guest_nice are not added again.
		var col [8]float64
		for _, line := range strings.Split(content, "\n") {
			if strings.HasPrefix(line, "cpu ") {
				fields := strings.Fields(line)[1:]
				for i := 0; i < len(fields) && i < len(col); i++ {
					col[i], _ = strconv.ParseFloat(fields[i], 64)
				}
				break
			}
		}
		want := col[0] + col[1] + col[2] + col[3] + (col[4] + col[5] + col[6] + col[7])
		if st.Total() != want {
			t.Fatalf("Total = %v, want the first eight columns' sum %v, from %q", st.Total(), want, content)
		}
		_ = CountCPUs(content)
	})
}
