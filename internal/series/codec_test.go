package series

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCSVRoundTrip(t *testing.T) {
	s := FromValues("trace", 0, 10, []float64{0.5, 0.25, 1, 0.123456789012345})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip len %d != %d", back.Len(), s.Len())
	}
	for i := range s.Points {
		if back.Points[i] != s.Points[i] {
			t.Fatalf("point %d: %v != %v", i, back.Points[i], s.Points[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"a,b\n1,2\n",          // wrong header
		"t,value\nxx,2\n",     // bad timestamp
		"t,value\n1,yy\n",     // bad value
		"t,value\n5,1\n1,2\n", // out of order
		"t,value\n1,2,3\n",    // wrong field count
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "x"); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("t,value\n"), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Name != "empty" {
		t.Fatalf("got %+v", s)
	}
}

// Property: CSV round-trip is the identity on series with finite values.
func TestCSVRoundTripProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, v)
		}
		s := FromValues("p", 0, 1, clean)
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf, "p")
		if err != nil || back.Len() != s.Len() {
			return false
		}
		for i := range s.Points {
			if back.Points[i] != s.Points[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
