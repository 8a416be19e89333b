package nwsnet

import (
	"context"
	"math"
	"testing"

	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// TestLocalBackendRoundTrip drives the full in-process stack the grid
// harness uses — sensord Step → LocalBackend → Memory → LocalBackend →
// forecaster — without a socket anywhere, and checks the read plane
// (RefreshNow + SetCacheServing) serves cached forecasts deterministically.
func TestLocalBackendRoundTrip(t *testing.T) {
	mem := NewMemory(0)
	backend := NewLocalBackend(mem)

	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemonBackend("simhost", sensors.SimHost{H: h}, backend)
	defer d.Close()

	const cadence = 10.0
	for k := 1; k <= 30; k++ {
		h.RunUntil(float64(k) * cadence)
		if err := d.Step(); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}

	key := SeriesKey("simhost", "nws_hybrid")
	pts, err := backend.Fetch(context.Background(), key, 0, 0, 0)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if len(pts) != 30 {
		t.Fatalf("stored %d hybrid points, want 30", len(pts))
	}

	f := NewForecasterServiceBackend(backend, 0)
	f.SetCacheServing(true)
	f.RefreshNow()
	resp := f.Handle(Request{Op: OpForecast, Series: key})
	if resp.Error != "" || resp.Forecast == nil {
		t.Fatalf("forecast: %+v", resp)
	}
	hits0, misses0, _ := f.CacheStats()
	// With the cache authoritative and no new stores, repeat queries are
	// pure cache hits.
	for i := 0; i < 5; i++ {
		if r := f.Handle(Request{Op: OpForecast, Series: key}); r.Error != "" {
			t.Fatalf("cached forecast: %+v", r)
		}
	}
	hits1, misses1, _ := f.CacheStats()
	if hits1-hits0 != 5 || misses1 != misses0 {
		t.Fatalf("cache stats moved hits %d->%d misses %d->%d, want +5 hits",
			hits0, hits1, misses0, misses1)
	}

	// A new store invalidates via the next RefreshNow and the forecast
	// frontier advances.
	n0 := resp.Forecast.N
	h.RunUntil(31 * cadence)
	if err := d.Step(); err != nil {
		t.Fatalf("late step: %v", err)
	}
	f.RefreshNow()
	resp2 := f.Handle(Request{Op: OpForecast, Series: key})
	if resp2.Forecast == nil || resp2.Forecast.N != n0+1 {
		t.Fatalf("refresh did not advance frontier: %+v after N=%d", resp2.Forecast, n0)
	}

	// Series listing flows through the same envelope.
	names, err := backend.Series(context.Background())
	if err != nil || len(names) != 3 {
		t.Fatalf("series: %v %v", names, err)
	}
}

// A cache hit is the forecaster's hot read: it serves the cached result
// without a copy and counts it on a method counter resolved when the
// forecast was cached, so it allocates nothing.
func TestForecastCacheHitAllocatesNothing(t *testing.T) {
	lt := NewLocalTransport()
	lt.Register("mem", NewMemory(0))
	f := NewForecasterServiceBackend(NewReplicaGroupTransport(lt, []string{"mem"}, 1), 0)
	f.SetCacheServing(true)
	const key = "h/cpu/nws_hybrid"
	if err := lt.StoreCtx(context.Background(), "mem", key, [][2]float64{{0, 0.5}, {1, 0.25}}); err != nil {
		t.Fatal(err)
	}
	req := Request{Op: OpForecast, Series: key}
	first := f.Handle(req) // a miss: it builds the engine and caches the forecast
	if first.Error != "" || first.Forecast == nil {
		t.Fatalf("first forecast: %+v", first)
	}
	selected := mFcMethodSelected.With(first.Forecast.Method)
	hits0, misses0, _ := f.CacheStats()
	counted0 := selected.Value()
	allocs := testing.AllocsPerRun(100, func() {
		if r := f.Handle(req); r.Forecast != first.Forecast {
			t.Fatalf("cache hit served %+v, want the cached result %p", r, first.Forecast)
		}
	})
	hits1, misses1, _ := f.CacheStats()
	if hits1-hits0 != 101 || misses1 != misses0 {
		t.Fatalf("cache stats moved hits %d->%d misses %d->%d, want 101 hits", hits0, hits1, misses0, misses1)
	}
	if got := selected.Value() - counted0; got != 101 {
		t.Fatalf("%s counted %d forecasts, want 101", first.Forecast.Method, got)
	}
	if allocs != 0 {
		t.Fatalf("a cache hit costs %v allocations, want 0", allocs)
	}
}
