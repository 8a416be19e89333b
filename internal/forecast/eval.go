package forecast

import (
	"errors"
	"math"
)

// EvalResult summarizes running a forecaster over a complete series.
type EvalResult struct {
	N         int       // number of scored one-step forecasts
	MAE       float64   // mean absolute one-step-ahead error (Eq. 5 form)
	RMSE      float64   // root mean squared one-step-ahead error
	Forecasts []float64 // Forecasts[i] is the prediction for values[i]; NaN when unavailable
}

// EvaluateEngine replays values through a fresh engine built by newEngine
// and returns both the engine's own evaluation and the final per-method
// report. newEngine is a constructor so that callers can choose the bank and
// selection criterion; pass NewDefaultEngine for the paper's configuration.
func EvaluateEngine(newEngine func() *Engine, values []float64) (EvalResult, []MethodError, error) {
	if len(values) == 0 {
		return EvalResult{}, nil, errors.New("forecast: EvaluateEngine on empty series")
	}
	e := newEngine()
	res := EvalResult{Forecasts: make([]float64, len(values))}
	var sumAbs, sumSq float64
	for i, v := range values {
		pred, ok := e.Forecast()
		if ok {
			res.Forecasts[i] = pred.Value
			d := pred.Value - v
			sumAbs += math.Abs(d)
			sumSq += d * d
			res.N++
		} else {
			res.Forecasts[i] = math.NaN()
		}
		e.Update(v)
	}
	if res.N > 0 {
		res.MAE = sumAbs / float64(res.N)
		res.RMSE = math.Sqrt(sumSq / float64(res.N))
	}
	return res, e.Report(), nil
}
