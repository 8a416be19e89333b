package nwsnet

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// startServer runs a handler on an ephemeral port and registers cleanup.
func startServer(t *testing.T, h Handler) string {
	t.Helper()
	srv := NewServer(h, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestPingAllComponents(t *testing.T) {
	c := NewClient(time.Second)
	for name, h := range map[string]Handler{
		"nameserver": NewNameServer(0, cluster.Config{}),
		"memory":     NewMemory(0),
		"forecaster": NewForecasterService([]string{"127.0.0.1:1"}, time.Second),
	} {
		addr := startServer(t, h)
		if err := c.PingCtx(context.Background(), addr); err != nil {
			t.Errorf("%s ping: %v", name, err)
		}
	}
}

func TestNameServerRegisterLookupList(t *testing.T) {
	ctx := context.Background()
	addr := startServer(t, NewNameServer(0, cluster.Config{}))
	c := NewClient(time.Second)

	reg := Registration{Name: "thing1/cpu", Kind: KindSensor, Addr: "10.0.0.1:9000"}
	if err := c.RegisterCtx(ctx, addr, reg); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterCtx(ctx, addr, Registration{Name: "mem0", Kind: KindMemory, Addr: "10.0.0.2:9001"}); err != nil {
		t.Fatal(err)
	}

	got, err := c.LookupCtx(ctx, addr, "thing1/cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reg) {
		t.Fatalf("Lookup = %+v, want %+v", got, reg)
	}

	if _, err := c.LookupCtx(ctx, addr, "nonexistent"); err == nil {
		t.Fatal("lookup of unknown name succeeded")
	}

	all, err := c.ListCtx(ctx, addr, "")
	if err != nil || len(all) != 2 {
		t.Fatalf("List all = %v, %v", all, err)
	}
	sensorsOnly, err := c.ListCtx(ctx, addr, KindSensor)
	if err != nil || len(sensorsOnly) != 1 || sensorsOnly[0].Name != "thing1/cpu" {
		t.Fatalf("List sensors = %v, %v", sensorsOnly, err)
	}

	// Re-registration overwrites.
	reg.Addr = "10.0.0.9:9999"
	if err := c.RegisterCtx(ctx, addr, reg); err != nil {
		t.Fatal(err)
	}
	got, err = c.LookupCtx(ctx, addr, "thing1/cpu")
	if err != nil || got.Addr != "10.0.0.9:9999" {
		t.Fatalf("re-register not applied: %+v, %v", got, err)
	}
}

func TestNameServerValidation(t *testing.T) {
	addr := startServer(t, NewNameServer(0, cluster.Config{}))
	c := NewClient(time.Second)
	ctx := context.Background()
	if err := c.RegisterCtx(ctx, addr, Registration{Name: "x"}); err == nil {
		t.Fatal("incomplete registration accepted")
	}
	if _, err := c.do(ctx, addr, Request{Op: OpLookup}); err == nil {
		t.Fatal("empty lookup accepted")
	}
	if _, err := c.do(ctx, addr, Request{Op: OpStore}); err == nil {
		t.Fatal("wrong op accepted by name server")
	}
}

func TestMemoryStoreFetch(t *testing.T) {
	ctx := context.Background()
	addr := startServer(t, NewMemory(0))
	c := NewClient(time.Second)

	pts := [][2]float64{{10, 0.9}, {20, 0.8}, {30, 0.7}}
	if err := c.StoreCtx(ctx, addr, "h/cpu/load_average", pts); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchCtx(ctx, addr, "h/cpu/load_average", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != pts[0] || got[2] != pts[2] {
		t.Fatalf("Fetch = %v", got)
	}

	// Range query [15, 25).
	got, err = c.FetchCtx(ctx, addr, "h/cpu/load_average", 15, 25, 0)
	if err != nil || len(got) != 1 || got[0][0] != 20 {
		t.Fatalf("range fetch = %v, %v", got, err)
	}

	// Max-points truncation keeps the most recent.
	got, err = c.FetchCtx(ctx, addr, "h/cpu/load_average", 0, 0, 2)
	if err != nil || len(got) != 2 || got[0][0] != 20 {
		t.Fatalf("max fetch = %v, %v", got, err)
	}

	if _, err := c.FetchCtx(ctx, addr, "nope", 0, 0, 0); err == nil {
		t.Fatal("fetch of unknown series succeeded")
	}

	names, err := c.SeriesCtx(ctx, addr)
	if err != nil || len(names) != 1 || names[0] != "h/cpu/load_average" {
		t.Fatalf("Series = %v, %v", names, err)
	}
}

func TestMemoryValidation(t *testing.T) {
	ctx := context.Background()
	addr := startServer(t, NewMemory(0))
	c := NewClient(time.Second)
	if err := c.StoreCtx(ctx, addr, "", [][2]float64{{1, 1}}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := c.StoreCtx(ctx, addr, "k", nil); err == nil {
		t.Fatal("empty points accepted")
	}
	if err := c.StoreCtx(ctx, addr, "k", [][2]float64{{5, 1}}); err != nil {
		t.Fatal(err)
	}
	// Stores are idempotent: points at or before the stored frontier are
	// absorbed silently (a retried delivery must not error or duplicate).
	if err := c.StoreCtx(ctx, addr, "k", [][2]float64{{1, 1}}); err != nil {
		t.Fatalf("stale store errored instead of deduping: %v", err)
	}
	got, err := c.FetchCtx(ctx, addr, "k", 0, 0, 0)
	if err != nil || len(got) != 1 || got[0][0] != 5 {
		t.Fatalf("after stale store: %v, %v (want only {5,1})", got, err)
	}
}

func TestMemoryCapacityBound(t *testing.T) {
	m := NewMemory(5)
	addr := startServer(t, m)
	c := NewClient(time.Second)
	for i := 0; i < 12; i++ {
		if err := c.StoreCtx(context.Background(), addr, "k", [][2]float64{{float64(i), float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len("k") != 5 {
		t.Fatalf("Len = %d, want 5", m.Len("k"))
	}
	got, err := c.FetchCtx(context.Background(), addr, "k", 0, 0, 0)
	if err != nil || len(got) != 5 || got[0][0] != 7 {
		t.Fatalf("bounded fetch = %v, %v", got, err)
	}
}

func TestForecasterEndToEnd(t *testing.T) {
	ctx := context.Background()
	memAddr := startServer(t, NewMemory(0))
	fcAddr := startServer(t, NewForecasterService([]string{memAddr}, time.Second))
	c := NewClient(time.Second)

	// Constant series: forecast must be the constant with ~0 MAE.
	pts := make([][2]float64, 50)
	for i := range pts {
		pts[i] = [2]float64{float64(i * 10), 0.75}
	}
	if err := c.StoreCtx(ctx, memAddr, "h/cpu/vmstat", pts); err != nil {
		t.Fatal(err)
	}
	fc, err := c.ForecastCtx(ctx, fcAddr, "h/cpu/vmstat")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc.Value-0.75) > 1e-9 {
		t.Fatalf("forecast = %+v, want 0.75", fc)
	}
	if fc.N != 50 {
		t.Fatalf("N = %d, want 50", fc.N)
	}

	// Incremental: add new points, re-query; engine must only consume the
	// new ones (N grows by exactly the new count).
	if err := c.StoreCtx(ctx, memAddr, "h/cpu/vmstat", [][2]float64{{500, 0.8}, {510, 0.8}}); err != nil {
		t.Fatal(err)
	}
	fc2, err := c.ForecastCtx(ctx, fcAddr, "h/cpu/vmstat")
	if err != nil {
		t.Fatal(err)
	}
	if fc2.N != 52 {
		t.Fatalf("incremental N = %d, want 52", fc2.N)
	}

	if _, err := c.ForecastCtx(ctx, fcAddr, "unknown"); err == nil {
		t.Fatal("forecast of unknown series succeeded")
	}
}

func TestForecasterMemoryDown(t *testing.T) {
	fcAddr := startServer(t, NewForecasterService([]string{"127.0.0.1:1"}, 200*time.Millisecond))
	c := NewClient(time.Second)
	if _, err := c.ForecastCtx(context.Background(), fcAddr, "h/cpu/vmstat"); err == nil {
		t.Fatal("forecast with unreachable memory succeeded")
	}
}

func TestSensorDaemonSimulated(t *testing.T) {
	memAddr := startServer(t, NewMemory(0))
	nsAddr := startServer(t, NewNameServer(0, cluster.Config{}))

	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemon("simhost", sensors.SimHost{H: h}, []string{memAddr}, 0, sensors.HybridConfig{})
	if err := d.Register(nsAddr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}

	c := NewClient(time.Second)
	for _, method := range []string{"load_average", "vmstat", "nws_hybrid"} {
		pts, err := c.FetchCtx(context.Background(), memAddr, SeriesKey("simhost", method), 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(pts) != 12 {
			t.Fatalf("%s: %d points, want 12", method, len(pts))
		}
	}

	regs, err := c.ListCtx(context.Background(), nsAddr, KindSensor)
	if err != nil || len(regs) != 1 || regs[0].Name != "simhost/cpu" {
		t.Fatalf("registration = %v, %v", regs, err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	addr := startServer(t, NewNameServer(0, cluster.Config{}))
	// A frame with an unknown opcode cannot be decoded, and binary framing
	// cannot resynchronize: the server closes the connection without a
	// response. The next fresh connection must still work.
	dec0 := mWireDecodeErrors.Value()
	_, send, recv := rawV2(t, addr)
	send([]byte{0x01, 0xff}) // request ID 1, opcode 0xff
	if id, resp, err := recv(); err == nil {
		t.Fatalf("unknown opcode answered: ID %d %+v", id, resp)
	}
	if got := mWireDecodeErrors.Value() - dec0; got != 1 {
		t.Fatalf("decode errors delta = %d, want 1", got)
	}
	if err := NewClient(time.Second).PingCtx(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewNameServer(0, cluster.Config{}), nil)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
}

// Property: request encode/decode round-trips through the wire format.
func TestRequestRoundTrip(t *testing.T) {
	memAddr := startServer(t, NewMemory(0))
	c := NewClient(time.Second)
	prop := func(key string, ts []uint16, vs []uint16) bool {
		if key == "" {
			key = "k"
		}
		n := len(ts)
		if len(vs) < n {
			n = len(vs)
		}
		if n == 0 {
			return true
		}
		if n > 64 {
			n = 64
		}
		pts := make([][2]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = [2]float64{float64(i), float64(vs[i]) / 65536}
		}
		// Fresh series per call to avoid ordering conflicts.
		k := key + string(rune('a'+n%26))
		if err := c.StoreCtx(context.Background(), memAddr, "p/"+k, pts); err != nil {
			// Ordering conflicts with an earlier iteration using the same
			// key are acceptable; transport errors are not.
			return true
		}
		back, err := c.FetchCtx(context.Background(), memAddr, "p/"+k, 0, 0, 0)
		if err != nil {
			return false
		}
		if len(back) < n {
			return false
		}
		for i := 0; i < n; i++ {
			if back[len(back)-n+i][1] != pts[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSensorDaemonStoreAndForward(t *testing.T) {
	m := NewMemory(0)
	srv := NewServer(m, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	h := simos.New(simos.DefaultConfig())
	d := NewSensorDaemon("safhost", sensors.SimHost{H: h}, []string{addr}, 0, sensors.HybridConfig{})
	defer d.Close()

	// Deliver a couple of measurements, then take the memory down.
	for i := 0; i < 2; i++ {
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err == nil {
			t.Fatal("step with dead memory reported success")
		}
	}
	if got := d.Backlogged(); got != 9 { // 3 epochs x 3 sensors
		t.Fatalf("backlog = %d, want 9", got)
	}

	// Bring the memory back on the same address and confirm backfill.
	srv2 := NewServer(m, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	h.RunUntil(h.Now() + 10)
	if err := d.Step(); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	if got := d.Backlogged(); got != 0 {
		t.Fatalf("backlog after recovery = %d, want 0", got)
	}
	// 2 pre-outage + 3 buffered + 1 post-recovery per sensor.
	if got := m.Len(SeriesKey("safhost", "load_average")); got != 6 {
		t.Fatalf("delivered points = %d, want 6", got)
	}
}

func TestSensorDaemonBacklogBounded(t *testing.T) {
	h := simos.New(simos.DefaultConfig())
	d := NewSensorDaemon("bh", sensors.SimHost{H: h}, []string{"127.0.0.1:1"}, 0, sensors.HybridConfig{})
	defer d.Close()
	d.backlogCap = 5
	for i := 0; i < 10; i++ {
		h.RunUntil(h.Now() + 10)
		_ = d.Step()
	}
	if got := d.Backlogged(); got != 15 { // 5 per sensor x 3 sensors
		t.Fatalf("bounded backlog = %d, want 15", got)
	}
}
