package forecast_test

import (
	"fmt"

	"nwscpu/internal/forecast"
)

// The basic usage: feed measurements, read one-step-ahead predictions.
func ExampleEngine() {
	eng := forecast.NewDefaultEngine()
	for _, v := range []float64{0.9, 0.9, 0.9, 0.9, 0.9} {
		eng.Update(v)
	}
	pred, _ := eng.Forecast()
	fmt.Printf("next availability: %.0f%%\n", pred.Value*100)
	// Output: next availability: 90%
}

// EvaluateEngine replays a whole series through a fresh engine, computing
// the paper's one-step-ahead prediction error (Equation 5). A one-member
// engine scores a single forecaster.
func ExampleEvaluateEngine() {
	lastValue := func() *forecast.Engine { return forecast.NewEngine(forecast.ByMAE, forecast.NewLastValue()) }
	res, _, _ := forecast.EvaluateEngine(lastValue, []float64{1, 2, 3, 4})
	fmt.Printf("MAE %.1f over %d forecasts\n", res.MAE, res.N)
	// Output: MAE 1.0 over 3 forecasts
}

// The members of a bank satisfy a one-method-pair interface and can be used
// standalone: take one from a bank of its own.
func ExampleSlidingMean() {
	var f forecast.Forecaster
	for _, m := range forecast.DefaultBank() {
		if m.Name() == "sw_mean_5" {
			f = m
		}
	}
	for _, v := range []float64{1, 2, 3, 4, 5, 6} {
		f.Update(v)
	}
	pred, _ := f.Forecast()
	fmt.Println(pred)
	// Output: 4
}
