package nwsnet

import (
	"bytes"
	"log"
	"strings"
	"testing"
	"time"

	"nwscpu/internal/metrics"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// Metric families are package-level and shared across tests, so every
// assertion here is on deltas, not absolute values.

func TestMemoryMetrics(t *testing.T) {
	stored0 := mMemoryPointsStored.Value()
	fetched0 := mMemoryPointsFetched.Value()
	evicted0 := mMemoryPointsEvicted.Value()
	storeReqs0 := mMemoryRequests.With("store").Value()
	errs0 := mMemoryErrors.With("fetch").Value()

	m := NewMemory(5)
	pts := make([][2]float64, 8)
	for i := range pts {
		pts[i] = [2]float64{float64(i), 0.5}
	}
	if resp := m.Handle(Request{Op: OpStore, Series: "k", Points: pts}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := mMemoryPointsStored.Value() - stored0; got != 8 {
		t.Errorf("points stored delta = %d, want 8", got)
	}
	if got := mMemoryPointsEvicted.Value() - evicted0; got != 3 { // capacity 5
		t.Errorf("points evicted delta = %d, want 3", got)
	}
	if got := mMemoryRequests.With("store").Value() - storeReqs0; got != 1 {
		t.Errorf("store requests delta = %d, want 1", got)
	}

	if resp := m.Handle(Request{Op: OpFetch, Series: "k"}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := mMemoryPointsFetched.Value() - fetched0; got != 5 {
		t.Errorf("points fetched delta = %d, want 5", got)
	}

	if resp := m.Handle(Request{Op: OpFetch, Series: "nope"}); resp.Error == "" {
		t.Fatal("fetch of unknown series succeeded")
	}
	if got := mMemoryErrors.With("fetch").Value() - errs0; got != 1 {
		t.Errorf("fetch errors delta = %d, want 1", got)
	}

	if got := mMemoryLatency.With("store").Count(); got == 0 {
		t.Error("store latency histogram has no observations")
	}
}

// Op strings reach handlers from outside — the wire carries opcodes, but an
// in-process caller can name any op: a NUL byte must not crash the memory
// (it used to panic in the metrics layer — a remote DoS when ops were
// strings on the wire), and arbitrary ops must land in the single "other"
// label instead of minting one time series each.
func TestServerWireOpsBoundedAndNULSafe(t *testing.T) {
	mem := NewMemory(0)
	memOther0 := mMemoryRequests.With("other").Value()
	bogus := []Op{"a\x00b", "bogus-op-1", "bogus-op-2"}
	for _, op := range bogus {
		if opLabel(op) != "other" {
			t.Errorf("op %q labeled %q, want other", op, opLabel(op))
		}
		if resp := mem.Handle(Request{Op: op}); resp.Error == "" {
			t.Errorf("op %q unexpectedly succeeded", op)
		}
	}
	// The memory survived; a known op still works.
	if pong := mem.Handle(Request{Op: OpPing}); pong.Error != "" {
		t.Fatalf("ping after malformed ops failed: %q", pong.Error)
	}

	if got := mMemoryRequests.With("other").Value() - memOther0; got != uint64(len(bogus)) {
		t.Errorf("memory other-op delta = %d, want %d", got, len(bogus))
	}
	var sb strings.Builder
	if err := metrics.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "bogus-op-1") {
		t.Error("unknown op minted its own time series")
	}
}

func TestSensorDaemonDropAccountingAndOutageLog(t *testing.T) {
	m := NewMemory(0)
	srv := NewServer(m, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	h := simos.New(simos.DefaultConfig())
	d := NewSensorDaemon("drophost", sensors.SimHost{H: h}, addr, sensors.HybridConfig{})
	defer d.Close()
	d.backlogCap = 4
	var buf bytes.Buffer
	d.SetLogger(log.New(&buf, "", 0))

	dropped0 := mSensorBacklogDropped.Value()
	outages0 := mSensorOutages.Value()
	failures0 := mSensorDeliveryFailures.Value()

	// One healthy delivery, then an outage long enough to overflow the cap.
	h.RunUntil(h.Now() + 10)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	const failedSteps = 7
	for i := 0; i < failedSteps; i++ {
		h.RunUntil(h.Now() + 10)
		if d.Step() == nil {
			t.Fatal("step with dead memory reported success")
		}
	}

	// Cap 4, 7 buffered epochs: 3 drops per sensor across 3 sensors.
	if got := mSensorBacklogDropped.Value() - dropped0; got != 9 {
		t.Errorf("dropped delta = %d, want 9", got)
	}
	if got := mSensorOutages.Value() - outages0; got != 1 {
		t.Errorf("outages delta = %d, want 1 (one outage, not one per step)", got)
	}
	if got := mSensorDeliveryFailures.Value() - failures0; got != 3*failedSteps {
		t.Errorf("delivery failures delta = %d, want %d", got, 3*failedSteps)
	}
	if got := strings.Count(buf.String(), "backlog full"); got != 1 {
		t.Errorf("backlog-full logged %d times, want exactly once per outage:\n%s", got, buf.String())
	}
	if got := mSensorBacklog.With("drophost").Value(); got != 12 { // cap 4 x 3 sensors
		t.Errorf("backlog gauge = %g, want 12", got)
	}

	// Recovery: backfill succeeds, and the outage summary reports the loss.
	srv2 := NewServer(m, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	h.RunUntil(h.Now() + 10)
	if err := d.Step(); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	if !strings.Contains(buf.String(), "delivery recovered; 9 measurements were dropped") {
		t.Errorf("missing recovery summary:\n%s", buf.String())
	}
	if got := mSensorBacklog.With("drophost").Value(); got != 0 {
		t.Errorf("backlog gauge after recovery = %g, want 0", got)
	}

	// A second outage logs again (the once-per-outage flag reset).
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		h.RunUntil(h.Now() + 10)
		_ = d.Step()
	}
	if got := mSensorOutages.Value() - outages0; got != 2 {
		t.Errorf("outages after second outage = %d, want 2", got)
	}
	if got := strings.Count(buf.String(), "backlog full"); got != 2 {
		t.Errorf("backlog-full logged %d times across two outages, want 2:\n%s", got, buf.String())
	}
}

func TestNameServerMetrics(t *testing.T) {
	regs0 := mNSRegistrations.Value()
	hits0 := mNSLookups.With("hit").Value()
	misses0 := mNSLookups.With("miss").Value()
	expiries0 := mNSExpiries.Value()

	base := time.Now()
	cur := base
	ns := NewNameServerTTL(100 * time.Millisecond)
	ns.now = func() time.Time { return cur }

	reg := Registration{Name: "a/cpu", Kind: KindSensor, Addr: "x:1"}
	if resp := ns.Handle(Request{Op: OpRegister, Reg: reg}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := mNSRegistrations.Value() - regs0; got != 1 {
		t.Errorf("registrations delta = %d, want 1", got)
	}
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "a/cpu"}}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := mNSLookups.With("hit").Value() - hits0; got != 1 {
		t.Errorf("hit delta = %d, want 1", got)
	}

	// Let the TTL lapse: the next lookup reaps and misses.
	cur = base.Add(200 * time.Millisecond)
	if resp := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "a/cpu"}}); resp.Error == "" {
		t.Fatal("expired entry still resolves")
	}
	if got := mNSLookups.With("miss").Value() - misses0; got != 1 {
		t.Errorf("miss delta = %d, want 1", got)
	}
	if got := mNSExpiries.Value() - expiries0; got != 1 {
		t.Errorf("expiries delta = %d, want 1", got)
	}
	// Looking up again must not double-count the same expiry.
	_ = ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "a/cpu"}})
	if got := mNSExpiries.Value() - expiries0; got != 1 {
		t.Errorf("expiries after repeat lookup = %d, want still 1", got)
	}
}
