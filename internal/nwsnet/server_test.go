package nwsnet

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/resilience"
)

// handlerFunc adapts a function to the Handler interface for test stubs.
type handlerFunc func(Request) Response

func (f handlerFunc) Handle(req Request) Response { return f(req) }

// startServerLimits runs a limited server over h and returns its address.
func startServerLimits(t *testing.T, h Handler, limits ServerLimits) (*Server, string) {
	t.Helper()
	srv := NewServerLimits(h, nil, limits)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// waitForGoroutines polls until the goroutine count drops back to at most
// want, failing the test after a generous deadline. Goroutine counts are
// noisy (the runtime and other tests run their own), so callers pass a
// baseline captured before the load plus slack.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d, want <= %d (leaked serving goroutines?)", runtime.NumGoroutine(), want)
}

func TestServerShedsConnectionsOverCap(t *testing.T) {
	_, addr := startServerLimits(t, NewMemory(0), ServerLimits{MaxConns: 2})

	// Fill the connection budget with two parked clients.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		held = append(held, c)
	}
	// Give the accept loop a moment to register both.
	deadline := time.Now().Add(2 * time.Second)
	for mServerConnsActive.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	shed0 := mServerShed.With(shedConns).Value()
	// A third connection must be answered with a retryable busy response,
	// not silently dropped and not left hanging.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp Response
	if err := readMsg(bufio.NewReader(c), &resp); err != nil {
		t.Fatalf("shed connection got no response: %v", err)
	}
	if resp.OK || resp.Code != CodeBusy {
		t.Fatalf("shed response = %+v, want busy", resp)
	}
	if got := mServerShed.With(shedConns).Value() - shed0; got != 1 {
		t.Fatalf("shed(connections) delta = %d, want 1", got)
	}

	// Releasing a held connection frees capacity for new clients.
	held[0].Close()
	cl := NewClient(time.Second)
	var ok bool
	for i := 0; i < 100 && !ok; i++ {
		ok = cl.Ping(addr) == nil
		if !ok {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("server did not recover capacity after a connection closed")
	}
}

func TestServerIdleDeadlineFreesGoroutine(t *testing.T) {
	srv, addr := startServerLimits(t, NewMemory(0), ServerLimits{IdleTimeout: 100 * time.Millisecond})
	baseline := runtime.NumGoroutine()
	shed0 := mServerShed.With(shedIdle).Value()

	// Clients that connect and never send a byte: without the idle deadline
	// each would pin a serving goroutine forever.
	const n = 8
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	// Wait on the event itself — every idle connection shed — not on the
	// process-wide goroutine count, which can dip to the target while the
	// last serving goroutine is still between its deadline and its counter.
	deadline := time.Now().Add(5 * time.Second)
	for mServerShed.With(shedIdle).Value()-shed0 < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := mServerShed.With(shedIdle).Value() - shed0; got != n {
		t.Errorf("shed(idle) delta = %d, want %d", got, n)
	}
	waitForGoroutines(t, baseline+1)
	// The server itself must still be live for well-behaved clients.
	if err := NewClient(time.Second).Ping(addr); err != nil {
		t.Fatalf("server dead after shedding idle connections: %v", err)
	}
	srv.Close()
}

func TestServerWriteDeadlineFreesStalledReader(t *testing.T) {
	// A handler whose response is far larger than the kernel socket buffers,
	// so writing it blocks until the client reads — which this client never
	// does. Without the write deadline the serving goroutine would be stuck
	// in the write for as long as the client cares to stall.
	big := make([][2]float64, 500_000)
	for i := range big {
		big[i] = [2]float64{float64(i), 0.5}
	}
	h := handlerFunc(func(req Request) Response { return Response{Points: big} })
	srv, addr := startServerLimits(t, h, ServerLimits{WriteTimeout: 200 * time.Millisecond})
	baseline := runtime.NumGoroutine()
	shed0 := mServerShed.With(shedWrite).Value()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Shrink the receive window so the server's write jams quickly.
	c.(*net.TCPConn).SetReadBuffer(4 << 10)
	if err := writeMsg(bufio.NewWriter(c), Request{Op: OpFetch, Series: "x"}); err != nil {
		t.Fatal(err)
	}
	// Never read. The server must cut the connection at the write deadline.
	deadline := time.Now().Add(5 * time.Second)
	for mServerShed.With(shedWrite).Value() == shed0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := mServerShed.With(shedWrite).Value() - shed0; got != 1 {
		t.Fatalf("shed(write) delta = %d, want 1", got)
	}
	waitForGoroutines(t, baseline+1)
	srv.Close()
}

func TestServerQueueShedsWithinBudget(t *testing.T) {
	// One in-flight slot, held by a blocked request; the next request must be
	// shed with a busy answer in roughly QueueWait, not the client timeout.
	release := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		if req.Op == OpStore {
			<-release
		}
		return Response{}
	})
	const queueWait = 50 * time.Millisecond
	_, addr := startServerLimits(t, h, ServerLimits{MaxInFlight: 1, QueueWait: queueWait})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewClient(5*time.Second).Store(addr, "k", [][2]float64{{1, 1}})
	}()
	// Wait until the blocker holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for mServerInFlight.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if mServerInFlight.Value() < 1 {
		t.Fatal("blocking request never took the in-flight slot")
	}

	shed0 := mServerShed.With(shedQueue).Value()
	// No retries: one attempt measures the shed latency directly.
	c := NewClientOptions(ClientOptions{Timeout: 5 * time.Second, Retry: resilience.Policy{MaxAttempts: 1}})
	t0 := time.Now()
	err := c.Ping(addr)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("request got a slot despite a saturated server")
	}
	if !IsBusy(err) {
		t.Fatalf("shed error = %v, want busy-classified", err)
	}
	if resilience.IsTerminal(err) {
		t.Fatalf("busy shed classified terminal (not retryable): %v", err)
	}
	if elapsed > 10*queueWait {
		t.Fatalf("shed took %v, want well under the client timeout (budget %v)", elapsed, queueWait)
	}
	if got := mServerShed.With(shedQueue).Value() - shed0; got != 1 {
		t.Errorf("shed(queue) delta = %d, want 1", got)
	}

	close(release)
	wg.Wait()
}

func TestServerInFlightBoundHolds(t *testing.T) {
	// Load test for the acceptance criterion: under far more concurrency
	// than MaxInFlight, the handler-observed high-water mark and the
	// exported gauge must never exceed the bound.
	const bound = 4
	var inHandler, highWater int64
	h := handlerFunc(func(req Request) Response {
		n := atomic.AddInt64(&inHandler, 1)
		for {
			hw := atomic.LoadInt64(&highWater)
			if n <= hw || atomic.CompareAndSwapInt64(&highWater, hw, n) {
				break
			}
		}
		if g := int64(mServerInFlight.Value()); g > bound {
			atomic.StoreInt64(&highWater, g+bound) // force the failure below
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inHandler, -1)
		return Response{}
	})
	_, addr := startServerLimits(t, h, ServerLimits{MaxInFlight: bound, QueueWait: 2 * time.Second})

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(5 * time.Second)
			for j := 0; j < 5; j++ {
				if err := c.Ping(addr); err != nil {
					t.Errorf("ping under load: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hw := atomic.LoadInt64(&highWater); hw > bound {
		t.Fatalf("in-flight high-water = %d, want <= %d", hw, bound)
	}
}

func TestClientRetriesBusyWithBackoff(t *testing.T) {
	// A server that sheds the first request and accepts the second: the
	// retry policy must classify busy as retryable and succeed transparently.
	var calls int64
	h := handlerFunc(func(req Request) Response {
		if atomic.AddInt64(&calls, 1) == 1 {
			return busyResp("synthetic shed")
		}
		return Response{}
	})
	addr := startServer(t, h)
	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err := c.Ping(addr); err != nil {
		t.Fatalf("busy was not retried: %v", err)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("server handled %d calls, want 2 (shed + retry)", got)
	}
}

func TestClientBreakerOpensDeniesAndRecovers(t *testing.T) {
	// A server shedding every request trips the client breaker; once open,
	// calls are denied without touching the server. After OpenFor, a probe
	// goes through, and a recovered server closes the circuit.
	var busy atomic.Bool
	busy.Store(true)
	var calls int64
	h := handlerFunc(func(req Request) Response {
		atomic.AddInt64(&calls, 1)
		if busy.Load() {
			return busyResp("synthetic shed")
		}
		return Response{}
	})
	addr := startServer(t, h)
	const openFor = 50 * time.Millisecond
	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 1},
		Breaker: &resilience.BreakerConfig{Window: 4, MinSamples: 2, OpenFor: openFor},
	})

	for i := 0; i < 2; i++ {
		if err := c.Ping(addr); err == nil {
			t.Fatal("busy server answered a ping successfully")
		}
	}
	if got := c.BreakerState(addr); got != resilience.BreakerOpen {
		t.Fatalf("breaker state after sheds = %v, want open", got)
	}

	// Denied without a server round trip.
	before := atomic.LoadInt64(&calls)
	err := c.Ping(addr)
	if err == nil {
		t.Fatal("open breaker allowed a call")
	}
	if !resilience.IsTerminal(err) {
		t.Fatalf("breaker denial should be terminal, got %v", err)
	}
	if got := atomic.LoadInt64(&calls); got != before {
		t.Fatalf("denied call still reached the server (%d -> %d calls)", before, got)
	}

	// Server recovers; after OpenFor the probe closes the circuit.
	busy.Store(false)
	time.Sleep(openFor + 20*time.Millisecond)
	if err := c.Ping(addr); err != nil {
		t.Fatalf("post-recovery probe failed: %v", err)
	}
	if got := c.BreakerState(addr); got != resilience.BreakerClosed {
		t.Fatalf("breaker state after probe success = %v, want closed", got)
	}
}
