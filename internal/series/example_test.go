package series_test

import (
	"bytes"
	"fmt"

	"nwscpu/internal/series"
)

func ExampleSeries_AggregateCount() {
	s := series.FromValues("trace", 0, 10, []float64{0.2, 0.4, 0.6, 0.8})
	agg, _ := s.AggregateCount(2)
	for _, p := range agg.Points {
		fmt.Printf("t=%.0f v=%.1f\n", p.T, p.V)
	}
	// Output:
	// t=10 v=0.3
	// t=30 v=0.7
}

func ExampleSeries_WriteCSV() {
	s := series.FromValues("trace", 0, 10, []float64{0.5})
	var buf bytes.Buffer
	_ = s.WriteCSV(&buf)
	fmt.Print(buf.String())
	// Output:
	// t,value
	// 0,0.5
}
