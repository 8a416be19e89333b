package forecast

import (
	"math/rand"
	"testing"
)

// Microbenchmarks of the forecaster hot path (make bench-forecast): the
// whole-engine Update kernel in both selection modes, the empirical
// prediction interval, and every DefaultBank member in steady state
// (window full, measuring one Update+Forecast round per iteration).

// benchValues returns a deterministic availability-like series in [0,1).
func benchValues(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	return vals
}

func BenchmarkEngineUpdate(b *testing.B) {
	e := NewDefaultEngine()
	vals := benchValues(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Update(vals[i%len(vals)])
	}
}

func BenchmarkEngineUpdateWindowed(b *testing.B) {
	e := NewWindowedEngine(ByMAE, 50, DefaultBank()...)
	vals := benchValues(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Update(vals[i%len(vals)])
	}
}

func BenchmarkEngineForecast(b *testing.B) {
	e := NewDefaultEngine()
	for _, v := range benchValues(1000) {
		e.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Forecast(); !ok {
			b.Fatal("no forecast")
		}
	}
}

func BenchmarkEngineForecastInterval(b *testing.B) {
	e := NewDefaultEngine()
	for _, v := range benchValues(1000) {
		e.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.ForecastInterval(0.9); !ok {
			b.Fatal("no interval")
		}
	}
}

// BenchmarkBankMember measures one Update+Forecast round per iteration for
// each DefaultBank member individually, in steady state (window full).
func BenchmarkBankMember(b *testing.B) {
	vals := benchValues(1024)
	for _, f := range DefaultBank() {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			for _, v := range vals[:128] { // fill windows before timing
				f.Update(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Update(vals[i%len(vals)])
				f.Forecast()
			}
		})
	}
}
