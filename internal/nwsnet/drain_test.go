package nwsnet

import (
	"context"
	"net"
	"testing"
	"time"
)

// slowHandler answers every request after a fixed delay.
type slowHandler struct{ delay time.Duration }

func (h slowHandler) Handle(req Request) Response {
	time.Sleep(h.delay)
	return Response{}
}

func TestServerCloseDrainsInFlightRequests(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := NewServer(handlerFunc(func(Request) Response {
		started <- struct{}{}
		time.Sleep(200 * time.Millisecond)
		return Response{}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One raw connection with a request in flight: no client-side retry can
	// mask an aborted exchange.
	_, send, recv := rawV2(t, addr)
	send(mustEncode(t, 1, Request{Op: OpPing}))

	// A second, idle connection must not hold the drain open.
	idle, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	<-started
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	// The in-flight request must complete with a real response, not an
	// aborted connection.
	id, resp, err := recv()
	if err != nil {
		t.Fatalf("in-flight request aborted by Close: %v", err)
	}
	if id != 1 || !resp.OK {
		t.Fatalf("drained response = ID %d %+v", id, resp)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after draining")
	}
}

func TestClientContextCancelsCall(t *testing.T) {
	srv := NewServer(slowHandler{delay: time.Second}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(10 * time.Second) // the context, not the timeout, must cut this short
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := c.PingCtx(ctx, addr); err == nil {
		t.Fatal("call outlived its context")
	}
	if d := time.Since(t0); d > 700*time.Millisecond {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestClientDefaultTimeoutStillApplies(t *testing.T) {
	srv := NewServer(slowHandler{delay: time.Second}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// No context given: the constructor timeout is the only bound, as
	// before. With retries disabled the deadline error surfaces directly.
	c := NewClientOptions(ClientOptions{Timeout: 80 * time.Millisecond})
	t0 := time.Now()
	if err := c.Ping(addr); err == nil {
		t.Fatal("call outlived the configured timeout")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

func TestClientPoolsConnections(t *testing.T) {
	m := NewMemory(0)
	addr := startServer(t, m)
	conns0 := mServerConnsTotal.Value()
	c := NewClient(time.Second)
	defer c.Close()
	for i := 0; i < 20; i++ {
		if err := c.Store(addr, "p", [][2]float64{{float64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mServerConnsTotal.Value() - conns0; got != 1 {
		t.Fatalf("20 sequential calls used %d connections, want 1 pooled", got)
	}
	if m.Len("p") != 20 {
		t.Fatalf("stored %d points, want 20", m.Len("p"))
	}
}
