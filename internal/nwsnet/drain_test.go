package nwsnet

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/resilience"
)

// heldHandler answers every request once it is closed.
type heldHandler chan struct{}

func (h heldHandler) Handle(Request) Response {
	<-h
	return Response{}
}

func TestServerCloseDrainsInFlightRequests(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	srv := NewServer(handlerFunc(func(Request) Response {
		started <- struct{}{}
		<-release
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
	// Release the handler only once Close has cut every connection's
	// read short: it sets closed and expires the deadlines under mu.
	waitFor(t, 5*time.Second, "Close starting", srv.closed.Load)
	srv.mu.Lock()
	srv.mu.Unlock()
	select {
	case <-closeDone:
		t.Fatal("Close returned with a request in flight")
	default:
	}
	unblock()

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
	held := make(heldHandler)
	srv := NewServer(held, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(held) // before Close, which drains the held request

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

// TestClientCancelIsNotChargedToBreaker: a caller cancelling its own calls
// says nothing about the endpoint, so the breaker stays closed however often
// it happens.
func TestClientCancelIsNotChargedToBreaker(t *testing.T) {
	held := make(heldHandler)
	srv := NewServer(held, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(held) // before Close, which drains the held requests

	c := NewClientOptions(ClientOptions{
		Timeout: 10 * time.Second,
		Retry:   resilience.Policy{MaxAttempts: 1},
		Breaker: true,
	})
	defer c.Close()
	// Five failures would trip the breaker; five cancellations must not.
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		if err := c.PingCtx(ctx, addr); err == nil {
			t.Fatal("cancelled call succeeded")
		}
		cancel()
	}
	if st := c.BreakerState(addr); st != resilience.BreakerClosed {
		t.Fatalf("breaker %v after the caller's own cancellations, want closed", st)
	}
}

func TestClientDefaultTimeoutStillApplies(t *testing.T) {
	// The first request is answered at once; every later one stalls.
	var served atomic.Int64
	release := make(chan struct{})
	srv := NewServer(handlerFunc(func(Request) Response {
		if served.Add(1) > 1 {
			<-release
		}
		return Response{}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release) // before Close, which drains the stalled request

	// No context given: the constructor timeout is the only bound, as
	// before. With retries disabled the deadline error surfaces directly.
	const timeout = 300 * time.Millisecond
	c := NewClientOptions(ClientOptions{Timeout: timeout, Retry: resilience.Policy{MaxAttempts: 1}})
	defer c.Close()
	if err := c.PingCtx(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	// Call again on the pooled connection halfway through its reader's
	// read-deadline lap: the call must still fail one timeout after it was
	// sent, not at the end of the reader's next lap.
	time.Sleep(timeout / 2)
	t0 := time.Now()
	if err := c.PingCtx(context.Background(), addr); err == nil {
		t.Fatal("call outlived the configured timeout")
	}
	if d := time.Since(t0); d > timeout*5/4 {
		t.Fatalf("timeout took %v, want about %v", d, timeout)
	}
}

func TestClientPoolsConnections(t *testing.T) {
	m := NewMemory(0)
	addr := startServer(t, m)
	conns0 := mServerConnsTotal.Value()
	c := NewClient(time.Second)
	defer c.Close()
	for i := 0; i < 20; i++ {
		if err := c.StoreCtx(context.Background(), addr, "p", [][2]float64{{float64(i), 1}}); err != nil {
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
