package netsensor

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"nwscpu/internal/forecast"
)

func startReflector(t *testing.T) string {
	t.Helper()
	r := NewReflector()
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return addr
}

func TestLatencySensor(t *testing.T) {
	addr := startReflector(t)
	s := NewLatencySensor(addr, 4, time.Second)
	defer s.Close()
	for i := 0; i < 10; i++ {
		rtt, err := s.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if rtt <= 0 || rtt > 0.5 {
			t.Fatalf("loopback RTT = %v s, implausible", rtt)
		}
	}
}

func TestLatencySensorPayloadClamping(t *testing.T) {
	addr := startReflector(t)
	for _, n := range []int{-5, 0, 1 << 30} {
		s := NewLatencySensor(addr, n, time.Second)
		if len(s.payload) < 1 || len(s.payload) > 64<<10 {
			t.Fatalf("payload size %d not clamped: %d", n, len(s.payload))
		}
		if _, err := s.Measure(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

func TestBandwidthSensor(t *testing.T) {
	addr := startReflector(t)
	s := NewBandwidthSensor(addr, 256<<10, 5*time.Second)
	defer s.Close()
	for i := 0; i < 5; i++ {
		bw, err := s.Measure()
		if err != nil {
			t.Fatal(err)
		}
		// Loopback should move far more than 1 MB/s.
		if bw < 1<<20 {
			t.Fatalf("loopback bandwidth = %v B/s, implausibly low", bw)
		}
	}
}

func TestBandwidthSensorClamping(t *testing.T) {
	addr := startReflector(t)
	s := NewBandwidthSensor(addr, 1, time.Second)
	defer s.Close()
	if len(s.buf) != 64<<10 {
		t.Fatalf("probe size not clamped up: %d", len(s.buf))
	}
	s2 := NewBandwidthSensor(addr, 1<<30, time.Second)
	defer s2.Close()
	if len(s2.buf) != maxProbeBytes {
		t.Fatalf("probe size not clamped down: %d", len(s2.buf))
	}
}

func TestSensorsUnreachableReflector(t *testing.T) {
	s := NewLatencySensor("127.0.0.1:1", 4, 200*time.Millisecond)
	defer s.Close()
	if _, err := s.Measure(); err == nil {
		t.Fatal("measurement against nothing succeeded")
	}
	b := NewBandwidthSensor("127.0.0.1:1", 0, 200*time.Millisecond)
	defer b.Close()
	if _, err := b.Measure(); err == nil {
		t.Fatal("bandwidth against nothing succeeded")
	}
}

func TestSensorRedialsAfterReflectorRestart(t *testing.T) {
	r := NewReflector()
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewLatencySensor(addr, 4, time.Second)
	defer s.Close()
	if _, err := s.Measure(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := NewReflector()
	if _, err := r2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer r2.Close()
	// First call fails (dead connection), second redials.
	if _, err := s.Measure(); err == nil {
		t.Log("note: first post-restart measure unexpectedly succeeded")
	}
	if _, err := s.Measure(); err != nil {
		t.Fatalf("redial failed: %v", err)
	}
}

func TestReflectorRejectsOversizedProbe(t *testing.T) {
	addr := startReflector(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [5]byte
	hdr[0] = probeEcho
	binary.BigEndian.PutUint32(hdr[1:], maxProbeBytes+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("reflector answered an oversized probe")
	}
}

func TestReflectorRejectsUnknownProbeType(t *testing.T) {
	addr := startReflector(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("reflector answered an unknown probe type")
	}
}

func TestReflectorCloseIdempotent(t *testing.T) {
	r := NewReflector()
	if _, err := r.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
}

// The point of the package: network measurement series feed the same NWS
// forecasting engine as CPU availability.
func TestNetworkSeriesForecastable(t *testing.T) {
	addr := startReflector(t)
	s := NewLatencySensor(addr, 4, time.Second)
	defer s.Close()
	eng := forecast.NewDefaultEngine()
	for i := 0; i < 30; i++ {
		rtt, err := s.Measure()
		if err != nil {
			t.Fatal(err)
		}
		eng.Update(rtt)
	}
	pred, ok := eng.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if pred.Value <= 0 || pred.Value > 0.5 {
		t.Fatalf("latency forecast = %v s, implausible", pred.Value)
	}
}
