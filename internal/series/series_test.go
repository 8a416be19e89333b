package series

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAppendOrdering(t *testing.T) {
	s := New("x", "")
	if err := s.Append(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 11); err != nil {
		t.Fatalf("equal timestamps should be allowed: %v", err)
	}
	if err := s.Append(0.5, 12); err == nil {
		t.Fatal("out-of-order append not rejected")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestFromValuesAndAccessors(t *testing.T) {
	s := FromValues("a", 100, 10, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	ts := s.Times()
	if ts[0] != 100 || ts[1] != 110 || ts[2] != 120 {
		t.Fatalf("Times = %v", ts)
	}
	vs := s.Values()
	if vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("Values = %v", vs)
	}
	p, ok := s.Last()
	if !ok || p.T != 120 || p.V != 3 {
		t.Fatalf("Last = %v %v", p, ok)
	}
	if got := s.At(1); got.V != 2 {
		t.Fatalf("At(1) = %v", got)
	}
	// Accessors must return copies.
	vs[0] = 99
	if s.At(0).V == 99 {
		t.Fatal("Values aliased internal storage")
	}
}

func TestLastEmpty(t *testing.T) {
	s := New("x", "")
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty should report !ok")
	}
}

func TestAggregateCount(t *testing.T) {
	s := FromValues("a", 0, 10, []float64{1, 3, 5, 7, 100})
	agg, err := s.AggregateCount(2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 2 {
		t.Fatalf("agg.Len = %d", agg.Len())
	}
	if agg.At(0).V != 2 || agg.At(0).T != 10 {
		t.Fatalf("agg[0] = %v", agg.At(0))
	}
	if agg.At(1).V != 6 || agg.At(1).T != 30 {
		t.Fatalf("agg[1] = %v", agg.At(1))
	}
	if _, err := s.AggregateCount(0); err == nil {
		t.Fatal("m=0 not rejected")
	}
	cp, _ := s.AggregateCount(1)
	cp.Points[0].V = 42
	if s.At(0).V == 42 {
		t.Fatal("AggregateCount(1) aliased the source")
	}
}

// Property: AggregateCount preserves the mean over complete blocks.
func TestAggregateCountPreservesMean(t *testing.T) {
	prop := func(vals []float64, mRaw uint8) bool {
		m := int(mRaw%8) + 1
		n := (len(vals) / m) * m
		clean := make([]float64, 0, n)
		for _, v := range vals[:n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				v = 0
			}
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		s := FromValues("p", 0, 1, clean)
		agg, err := s.AggregateCount(m)
		if err != nil {
			return false
		}
		var sum, aggSum float64
		for _, v := range clean {
			sum += v
		}
		for _, p := range agg.Points {
			aggSum += p.V * float64(m)
		}
		return math.Abs(sum-aggSum) <= 1e-6*(1+math.Abs(sum))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
