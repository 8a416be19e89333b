package nwsnet

import (
	"context"
	"math"
	"testing"

	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// A single NaN measurement must not take the forecaster down. The default
// bank's order-statistics windows have no total order to keep a NaN in, and
// panic when they evict one: sw_median_50 does so 51 updates after it
// arrived. The memory refuses the point instead, so the forecaster serves
// over the finite points around the refusal.
func TestNaNMeasurementDoesNotCrashForecaster(t *testing.T) {
	ctx := context.Background()
	lt := NewLocalTransport()
	lt.Register("mem", NewMemory(0))
	f := NewForecasterServiceBackend(NewReplicaGroupTransport(lt, []string{"mem"}, 1), 0)
	f.SetCacheServing(true)
	const key = "h/cpu/nws_hybrid"

	if err := lt.StoreCtx(ctx, "mem", key, [][2]float64{{0, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if r := f.Handle(Request{Op: OpForecast, Series: key}); r.Error != "" {
		t.Fatalf("first forecast: %s", r.Error)
	}
	nanErr := lt.StoreCtx(ctx, "mem", key, [][2]float64{{1, math.NaN()}})
	const rounds = 60
	for i := 2; i < 2+rounds; i++ {
		if err := lt.StoreCtx(ctx, "mem", key, [][2]float64{{float64(i), float64(i%7) / 7}}); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		f.RefreshNow()
	}
	if nanErr == nil || IsBusy(nanErr) {
		t.Errorf("NaN store answered %v, want a terminal refusal", nanErr)
	}
	r := f.Handle(Request{Op: OpForecast, Series: key})
	if r.Error != "" || r.Forecast == nil {
		t.Fatalf("forecast after %d rounds: %+v", rounds, r)
	}
	if r.Forecast.N != 1+rounds || math.IsNaN(r.Forecast.Value) || math.IsNaN(r.Forecast.MAE) {
		t.Fatalf("forecast = %+v, want N=%d and finite value and MAE", *r.Forecast, 1+rounds)
	}
}

// Both write doors refuse a sub-request holding any non-finite t or v as a
// whole: its finite points are not applied either, and nothing reaches the
// journal, so a reopened memory holds exactly what was acknowledged.
func TestMemoryRefusesNonFinitePoints(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pm, err := NewPersistentMemory(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	lt := NewLocalTransport()
	lt.Register("mem", pm)
	const key = "k"
	if err := lt.StoreCtx(ctx, "mem", key, [][2]float64{{10, 0.5}}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][2]float64{
		"NaN v":  {20, math.NaN()},
		"+Inf v": {20, math.Inf(1)},
		"-Inf v": {20, math.Inf(-1)},
		"NaN t":  {math.NaN(), 0.5},
		"+Inf t": {math.Inf(1), 0.5},
		"-Inf t": {math.Inf(-1), 0.5},
	} {
		pts := [][2]float64{{5, 0.25}, {15, 0.75}, bad}
		if err := lt.StoreCtx(ctx, "mem", key, pts); err == nil || IsBusy(err) {
			t.Errorf("%s: store answered %v, want a terminal refusal", name, err)
		}
		if err := lt.BackfillCtx(ctx, "mem", key, pts); err == nil || IsBusy(err) {
			t.Errorf("%s: backfill answered %v, want a terminal refusal", name, err)
		}
		// The same point inside a batch envelope fails its own sub only.
		resp := pm.Handle(Request{Op: OpBatch, Batch: []Request{
			{Op: OpStore, Series: key, Points: pts},
			{Op: OpStore, Series: "other", Points: [][2]float64{{1, 1}}},
		}})
		if resp.Error != "" || resp.Batch[0].Error == "" || resp.Batch[1].Error != "" {
			t.Errorf("%s: batch answered %+v, want only the first sub refused", name, resp)
		}
	}
	if n := pm.Len(key); n != 1 {
		t.Errorf("memory holds %d points of %q, want 1", n, key)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewPersistentMemory(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Len(key); n != 1 {
		t.Errorf("reopened memory holds %d points of %q, want 1", n, key)
	}
}

// nanSensor reads NaN on every odd call and 0.5 otherwise.
type nanSensor struct{ calls int }

func (s *nanSensor) Name() string { return "flaky" }

func (s *nanSensor) Measure() float64 {
	s.calls++
	if s.calls%2 == 1 {
		return math.NaN()
	}
	return 0.5
}

// A sensor that reads a non-finite value gets that step's error, and the
// reading is neither stored nor queued: a queued NaN would be refused on
// every redelivery and wedge the series' backlog.
func TestSensorDaemonDropsNonFiniteReading(t *testing.T) {
	mem := NewMemory(0)
	h := simos.New(simos.DefaultConfig())
	d := NewSensorDaemonBackend("h", sensors.SimHost{H: h}, NewLocalBackend(mem))
	d.sensors = []sensors.Sensor{&nanSensor{}}
	key := SeriesKey("h", "flaky")
	for step := 1; step <= 4; step++ {
		h.RunUntil(float64(step) * 10)
		err := d.Step()
		if nan := step%2 == 1; nan != (err != nil) {
			t.Fatalf("step %d: err = %v, want an error exactly on the NaN steps", step, err)
		}
		if d.Backlogged() != 0 {
			t.Fatalf("step %d: %d points backlogged, want 0", step, d.Backlogged())
		}
	}
	if n := mem.Len(key); n != 2 {
		t.Fatalf("memory holds %d points, want the 2 finite readings", n)
	}
}
