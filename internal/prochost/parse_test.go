package prochost

import (
	"math"
	"testing"
)

func TestParseLoadAvg(t *testing.T) {
	li, err := ParseLoadAvg("0.52 0.58 0.59 2/345 12345\n")
	if err != nil {
		t.Fatal(err)
	}
	if li.Load1 != 0.52 || li.Running != 2 {
		t.Fatalf("loadavg = %+v", li)
	}
}

func TestParseLoadAvgErrors(t *testing.T) {
	cases := []string{
		"",
		"0.5 0.5 0.5",       // too few fields
		"x 0.5 0.5 1/2 3",   // bad load1
		"0.5 x 0.5 1/2 3",   // bad load5
		"0.5 0.5 x 1/2 3",   // bad load15
		"0.5 0.5 0.5 12 3",  // no slash
		"0.5 0.5 0.5 a/2 3", // bad running
		"0.5 0.5 0.5 1/b 3", // bad total
		"nan 0.5 0.5 1/2 3", // not finite
		"0.5 inf 0.5 1/2 3", // not finite
		"0.5 0.5 -1 1/2 3",  // negative
	}
	for _, c := range cases {
		if _, err := ParseLoadAvg(c); err == nil {
			t.Errorf("ParseLoadAvg(%q) succeeded", c)
		}
	}
}

func TestParseStat(t *testing.T) {
	for _, tc := range []struct {
		name, content                string
		user, nice, sys, idle, other float64
	}{
		{
			name: "guest idle",
			content: `cpu  74608 2520 24433 1117073 6176 4054 0 0 0 0
cpu0 37304 1260 12216 558536 3088 2027 0 0 0 0
intr 12345
`,
			user: 74608, nice: 2520, sys: 24433, idle: 1117073, other: 6176.0 + 4054,
		},
		{
			// guest and guest_nice (columns 9-10) are already inside user
			// and nice (proc(5)), so only iowait..steal land in Other.
			name:    "guest running",
			content: "cpu  5000 300 2000 90000 400 50 60 70 1200 100\n",
			user:    5000, nice: 300, sys: 2000, idle: 90000, other: 400.0 + 50 + 60 + 70,
		},
	} {
		st, err := ParseStat(tc.content)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.User != tc.user || st.Nice != tc.nice || st.Sys != tc.sys || st.Idle != tc.idle {
			t.Fatalf("%s: stat = %+v", tc.name, st)
		}
		if math.Abs(st.Other-tc.other) > 1e-9 {
			t.Fatalf("%s: Other = %v, want %v", tc.name, st.Other, tc.other)
		}
		wantTotal := tc.user + tc.nice + tc.sys + tc.idle + tc.other
		if math.Abs(st.Total()-wantTotal) > 1e-9 {
			t.Fatalf("%s: Total = %v, want %v", tc.name, st.Total(), wantTotal)
		}
	}
}

func TestParseStatMinimalFields(t *testing.T) {
	st, err := ParseStat("cpu 1 2 3 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if st.Other != 0 || st.Total() != 10 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestParseStatErrors(t *testing.T) {
	cases := []string{
		"",
		"cpu0 1 2 3 4\n",            // no aggregate line
		"cpu 1 2 3\n",               // too few fields
		"cpu 1 2 x 4 5\n",           // bad number
		"cpu 1 nan 3 4\n",           // not finite
		"cpu 1 2 3 4 5 6 7 8 inf\n", // not finite, even past steal
		"cpu 1 2 -3 4\n",            // negative
	}
	for _, c := range cases {
		if _, err := ParseStat(c); err == nil {
			t.Errorf("ParseStat(%q) succeeded", c)
		}
	}
}

func TestCountCPUs(t *testing.T) {
	content := "cpu  1 2 3 4\ncpu0 1 1 1 1\ncpu1 1 1 1 1\ncpu15 1 1 1 1\nintr 5\n"
	if got := CountCPUs(content); got != 3 {
		t.Fatalf("CountCPUs = %d, want 3", got)
	}
	if got := CountCPUs("cpu 1 2 3 4\n"); got != 0 {
		t.Fatalf("CountCPUs(aggregate only) = %d, want 0", got)
	}
	if got := CountCPUs(""); got != 0 {
		t.Fatalf("CountCPUs(empty) = %d", got)
	}
}
