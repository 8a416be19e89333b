package nwsnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	return startServerClock(t, h, limits, wallClock{})
}

// startServerClock is startServerLimits with the server's quota and queue
// decisions on clk.
func startServerClock(t *testing.T, h Handler, limits ServerLimits, clk clock) (*Server, string) {
	t.Helper()
	srv := NewServerLimits(h, nil, limits)
	srv.clk = clk
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// waitForGoroutines waits until the goroutine count drops back to at most
// want. Goroutine counts are noisy (the runtime and other tests run their
// own), so callers pass a baseline captured before the load plus slack.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("drop to %d goroutines (leaked serving goroutines?)", want), func() bool {
		return runtime.NumGoroutine() <= want
	})
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
	waitFor(t, 5*time.Second, "accept loop registering both connections", func() bool {
		return mServerConnsActive.Value() >= 2
	})

	shed0 := mServerShed.With(shedConns).Value()
	// A third connection must be answered with a retryable busy response,
	// not silently dropped and not left hanging: a connection-level frame
	// tagged with the reserved request ID 0.
	_, _, recv := rawV2(t, addr)
	id, resp, err := recv()
	if err != nil {
		t.Fatalf("shed connection got no response: %v", err)
	}
	if id != 0 || resp.OK || resp.Code != CodeBusy {
		t.Fatalf("shed response = ID %d %+v, want ID 0 busy", id, resp)
	}
	if got := mServerShed.With(shedConns).Value() - shed0; got != 1 {
		t.Fatalf("shed(connections) delta = %d, want 1", got)
	}

	// Releasing a held connection frees capacity for new clients.
	held[0].Close()
	cl := NewClient(time.Second)
	defer cl.Close()
	waitFor(t, 5*time.Second, "capacity recovered after a connection closed", func() bool {
		return cl.PingCtx(context.Background(), addr) == nil
	})
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
	waitFor(t, 5*time.Second, "idle shed of every silent connection", func() bool {
		return mServerShed.With(shedIdle).Value()-shed0 >= n
	})
	if got := mServerShed.With(shedIdle).Value() - shed0; got != n {
		t.Errorf("shed(idle) delta = %d, want %d", got, n)
	}
	waitForGoroutines(t, baseline+1)
	// The server itself must still be live for well-behaved clients.
	if err := NewClient(time.Second).PingCtx(context.Background(), addr); err != nil {
		t.Fatalf("server dead after shedding idle connections: %v", err)
	}
	srv.Close()
}

func TestServerWriteDeadlineFreesStalledReader(t *testing.T) {
	// A handler whose responses (2.5 MB frames, pipelined eight deep) are far
	// larger than the kernel socket buffers, so writing them blocks until the
	// client reads — which this client never does. Without the write
	// deadline the serving goroutine would be stuck in the write for as long
	// as the client cares to stall.
	big := make([][2]float64, 500_000)
	for i := range big {
		big[i] = [2]float64{float64(i), 0.5}
	}
	h := handlerFunc(func(req Request) Response { return Response{Points: big} })
	srv, addr := startServerLimits(t, h, ServerLimits{WriteTimeout: 200 * time.Millisecond})
	baseline := runtime.NumGoroutine()
	shed0 := mServerShed.With(shedWrite).Value()

	c, send, _ := rawV2(t, addr)
	// Shrink the receive window so the server's write jams quickly.
	c.(*net.TCPConn).SetReadBuffer(4 << 10)
	for id := uint64(1); id <= 8; id++ {
		send(mustEncode(t, id, Request{Op: OpFetch, Series: "x"}))
	}
	// Never read. A response frame's write must block, and binSink's write
	// deadline must shed it and cut the connection.
	waitFor(t, 5*time.Second, "write shed", func() bool {
		return mServerShed.With(shedWrite).Value() != shed0
	})
	if got := mServerShed.With(shedWrite).Value() - shed0; got != 1 {
		t.Fatalf("shed(write) delta = %d, want 1", got)
	}
	waitForGoroutines(t, baseline+1)
	srv.Close()
}

func TestServerQueueShedsWithinBudget(t *testing.T) {
	// One in-flight slot, held by a request blocked on a channel; the next
	// request must be shed with a busy answer once QueueWait has passed on
	// the server's clock, not a moment before and not at the client timeout.
	release := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		if req.Op == OpStore {
			<-release
		}
		return Response{}
	})
	const queueWait = 50 * time.Millisecond
	fc := newFakeClock()
	_, addr := startServerClock(t, h, ServerLimits{MaxInFlight: 1, QueueWait: queueWait}, fc)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewClient(5*time.Second).StoreCtx(context.Background(), addr, "k", [][2]float64{{1, 1}})
	}()
	defer wg.Wait()
	defer close(release)
	waitFor(t, 5*time.Second, "blocking request taking the in-flight slot", func() bool {
		return mServerInFlight.Value() >= 1
	})

	shed0 := mServerShed.With(shedQueue).Value()
	// No retries: one attempt is one queue wait.
	c := NewClientOptions(ClientOptions{Timeout: 5 * time.Second, Retry: resilience.Policy{MaxAttempts: 1}})
	defer c.Close()
	pinged := make(chan error, 1)
	go func() { pinged <- c.PingCtx(context.Background(), addr) }()
	waitFor(t, 5*time.Second, "queued request arming its QueueWait timer", func() bool { return fc.armed() == 1 })
	fc.advance(queueWait - time.Nanosecond)
	if got := mServerShed.With(shedQueue).Value() - shed0; got != 0 {
		t.Fatalf("shed(queue) delta = %d before QueueWait had passed, want 0", got)
	}
	fc.advance(time.Nanosecond)
	err := <-pinged
	if err == nil {
		t.Fatal("request got a slot despite a saturated server")
	}
	if !IsBusy(err) {
		t.Fatalf("shed error = %v, want busy-classified", err)
	}
	if resilience.IsTerminal(err) {
		t.Fatalf("busy shed classified terminal (not retryable): %v", err)
	}
	if got := mServerShed.With(shedQueue).Value() - shed0; got != 1 {
		t.Errorf("shed(queue) delta = %d, want 1", got)
	}
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
				if err := c.PingCtx(context.Background(), addr); err != nil {
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
	if err := c.PingCtx(context.Background(), addr); err != nil {
		t.Fatalf("busy was not retried: %v", err)
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("server handled %d calls, want 2 (shed + retry)", got)
	}
}

// TestClientBreakerOpensDeniesAndRecovers checks the breaker the sensor
// daemon and the forecaster run: a server shedding every request trips it,
// yet a sequential caller is never denied, because each call after the trip
// is admitted as the probe. While a probe is in flight, a concurrent call is
// denied terminally without touching the server, and one successful probe
// closes the circuit again.
func TestClientBreakerOpensDeniesAndRecovers(t *testing.T) {
	ctx := context.Background()
	var busy atomic.Bool
	busy.Store(true)
	var calls int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		atomic.AddInt64(&calls, 1)
		if busy.Load() {
			return busyResp("synthetic shed")
		}
		entered <- struct{}{}
		<-release
		return Response{}
	})
	addr := startServer(t, h)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // a failed check must not leave the server's handler blocked
	c := NewClientOptions(ClientOptions{
		Timeout: 5 * time.Second,
		Retry:   resilience.Policy{MaxAttempts: 1},
		Breaker: true,
	})
	defer c.Close()
	openT0 := mBreakerTransitions.With(addr, "open").Value()
	closedT0 := mBreakerTransitions.With(addr, "closed").Value()

	// Five sheds trip the breaker; the three calls after that still reach
	// the server, each as the probe, and each failure reopens the circuit.
	for i := 0; i < 8; i++ {
		before := atomic.LoadInt64(&calls)
		err := c.PingCtx(ctx, addr)
		if err == nil {
			t.Fatal("busy server answered a ping successfully")
		}
		if errors.Is(err, resilience.ErrBreakerOpen) || atomic.LoadInt64(&calls) != before+1 {
			t.Fatalf("sequential call %d denied: %v", i, err)
		}
	}
	if got := c.BreakerState(addr); got != resilience.BreakerOpen {
		t.Fatalf("breaker state after sheds = %v, want open", got)
	}

	// The server recovers, slowly: the probe holds the handler while a
	// concurrent call is denied without a server round trip.
	busy.Store(false)
	probe := make(chan error, 1)
	go func() { probe <- c.PingCtx(ctx, addr) }()
	select {
	case <-entered:
	case err := <-probe:
		t.Fatalf("probe returned before reaching the handler: %v", err)
	}
	before := atomic.LoadInt64(&calls)
	err := c.PingCtx(ctx, addr)
	if !errors.Is(err, resilience.ErrBreakerOpen) || !resilience.IsTerminal(err) {
		t.Fatalf("call beside the probe: %v, want a terminal breaker denial", err)
	}
	if got := atomic.LoadInt64(&calls); got != before {
		t.Fatalf("denied call still reached the server (%d -> %d calls)", before, got)
	}
	unblock()
	if err := <-probe; err != nil {
		t.Fatalf("post-recovery probe failed: %v", err)
	}
	if got := c.BreakerState(addr); got != resilience.BreakerClosed {
		t.Fatalf("breaker state after probe success = %v, want closed", got)
	}
	if got := mBreakerTransitions.With(addr, "open").Value() - openT0; got != 4 {
		t.Errorf("nws_client_breaker_transitions_total{open} grew by %d, want 4 (the trip and three failed probes)", got)
	}
	if got := mBreakerTransitions.With(addr, "closed").Value() - closedT0; got != 1 {
		t.Errorf("nws_client_breaker_transitions_total{closed} grew by %d, want 1", got)
	}
}

// TestServerBusyIsNotIdle: a request that runs longer than IdleTimeout is
// work, not silence. The connection must still be there for the next call,
// and nothing may count as an idle shed.
func TestServerBusyIsNotIdle(t *testing.T) {
	h := handlerFunc(func(req Request) Response {
		if req.Op == OpStore {
			time.Sleep(300 * time.Millisecond)
		}
		return Response{}
	})
	_, addr := startServerLimits(t, h, ServerLimits{IdleTimeout: 100 * time.Millisecond})
	mux, err := DialMux(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	shed0 := mServerShed.With(shedIdle).Value()
	if _, err := mux.Do(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 1}}}); err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatalf("call after a request that outran the idle timeout: %v", err)
	}
	if got := mServerShed.With(shedIdle).Value() - shed0; got != 0 {
		t.Fatalf("shed(idle) delta = %d, want 0", got)
	}
}

// writeCountingConn counts the Write calls the server makes on its end of a
// connection.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerBurstThroughServeLoop drives the real serve loop over a pipe
// with a burst that arrives in one client write. Every answer must reach the
// client, in order, before the connection closes. A well-formed burst is
// answered in one server write, with nws_wire_pipeline_depth counting down
// the frames still buffered behind each request. A burst that ends in a
// frame the server cannot decode still gets the answers before it.
func TestServerBurstThroughServeLoop(t *testing.T) {
	const n = 8
	unknownOp := []byte{byte(n + 1), 0xff} // request ID, then no assigned opcode
	for _, c := range []struct {
		name    string
		frames  int  // pings with IDs 1..frames
		garbage bool // then a frame with an unknown opcode
	}{
		{"pings", n, false},
		{"pings-then-unknown-op", 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var burst bytes.Buffer
			burst.Write(wirePreamble[:])
			bw := bufio.NewWriter(&burst)
			for id := 1; id <= c.frames; id++ {
				writeFrame(bw, mustEncode(t, uint64(id), Request{Op: OpPing}))
			}
			if c.garbage {
				writeFrame(bw, unknownOp)
			}
			bw.Flush()

			srv := NewServer(NewMemory(0), nil)
			server, client := net.Pipe()
			defer client.Close()
			counted := &writeCountingConn{Conn: server}
			depthN, depthSum := mWirePipelineDepth.Count(), mWirePipelineDepth.Sum()
			decodeErrs := mWireDecodeErrors.Value()
			srv.wg.Add(1)
			go srv.serveConn(counted)
			client.SetDeadline(time.Now().Add(5 * time.Second))
			go client.Write(burst.Bytes()) // returns once the server has read all of it

			r := bufio.NewReader(client)
			if b, err := r.ReadByte(); err != nil || b != wireVersionBinary {
				t.Fatalf("accept byte = %#x, %v; want %#x", b, err, wireVersionBinary)
			}
			var buf []byte
			for want := uint64(1); want <= uint64(c.frames); want++ {
				p, _, err := readFrame(r, &buf)
				if err != nil {
					t.Fatalf("answer %d of %d: %v", want, c.frames, err)
				}
				id, resp, err := decodeResponsePayload(p)
				if err != nil || id != want || !resp.OK {
					t.Fatalf("answer = ID %d %+v, %v; want ID %d ok", id, resp, err, want)
				}
			}
			if !c.garbage {
				client.Close() // the server's read ends, and so does the loop
			} else if _, err := r.ReadByte(); err != io.EOF {
				t.Fatalf("after the answers: %v, want EOF (the server closes on the bad frame)", err)
			}
			srv.wg.Wait()

			if c.garbage {
				if got := mWireDecodeErrors.Value() - decodeErrs; got != 1 {
					t.Fatalf("decode errors delta = %d, want 1", got)
				}
				return
			}
			if got := counted.writes.Load(); got != 1 {
				t.Errorf("server made %d writes for a one-write burst of %d, want 1", got, n)
			}
			if got := mWirePipelineDepth.Count() - depthN; got != n {
				t.Errorf("pipeline depth observations = %d, want %d", got, n)
			}
			if got := mWirePipelineDepth.Sum() - depthSum; got != n*(n-1)/2 {
				t.Errorf("pipeline depth sum = %v, want %d (%d, %d, …, 0)", got, n*(n-1)/2, n-1, n-2)
			}
		})
	}
}

// TestServerOneGoroutinePerConnection: a negotiated v2 connection parked
// between requests costs the server one goroutine.
func TestServerOneGoroutinePerConnection(t *testing.T) {
	_, addr := startServerLimits(t, NewMemory(0), ServerLimits{})
	baseline := runtime.NumGoroutine()
	conns0 := mWireConns.With(codecBinary).Value()
	const n = 32
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(wirePreamble[:]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "every connection negotiated", func() bool {
		return mWireConns.With(codecBinary).Value()-conns0 >= n
	})
	if got := mWireConns.With(codecBinary).Value() - conns0; got != n {
		t.Fatalf("negotiated %d connections, want %d", got, n)
	}
	waitForGoroutines(t, baseline+n+n/4)
}

// countConn counts the Write calls made on a net.Conn and keeps their bytes.
type countConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	out    bytes.Buffer
}

func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the writes and bytes seen since the last take.
func (c *countConn) take() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, b := c.writes, bytes.Clone(c.out.Bytes())
	c.writes = 0
	c.out.Reset()
	return n, b
}

// TestResponseFrameOneWrite pins one write per response frame: a 64- and a
// 1024-point fetch response each leave the server in a single Write on the
// connection, the second one larger than the connection's 4 KiB buffered
// writer, and the bytes are exactly what encodeResponsePayload + writeFrame
// make of the handler's answer.
func TestResponseFrameOneWrite(t *testing.T) {
	mem := NewMemory(0)
	pts := make([][2]float64, 1024)
	for i := range pts {
		pts[i] = [2]float64{10 * float64(i), float64(i%97) / 97}
	}
	mem.Handle(Request{Op: OpStore, Series: "k", Points: pts})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := NewServer(mem, nil)
	t.Cleanup(func() { srv.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	_, send, recv := rawV2(t, ln.Addr().String())
	nc, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	cc := &countConn{Conn: nc}
	srv.mu.Lock()
	srv.conns[cc] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.serveConn(cc)

	// The accept byte rides in front of the first response; a ping takes it.
	send(mustEncode(t, 1, Request{Op: OpPing}))
	if _, _, err := recv(); err != nil {
		t.Fatal(err)
	}
	cc.take()

	for _, c := range []struct {
		id  uint64
		max int
	}{{2, 64}, {3, 1024}} {
		id, max := c.id, c.max
		req := Request{Op: OpFetch, Series: "k", Max: max}
		send(mustEncode(t, id, req))
		if gotID, resp, err := recv(); err != nil || gotID != id || len(resp.Points) != max {
			t.Fatalf("fetch %d: id %d, %d points, %v", max, gotID, len(resp.Points), err)
		}
		writes, got := cc.take()

		want := mem.Handle(req)
		want.OK = want.Error == ""
		payload, err := encodeResponsePayload(nil, id, &want)
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		w := bufio.NewWriter(&frame)
		if err := writeFrame(w, payload); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if max == 1024 && len(payload) <= 4096 {
			t.Fatalf("a %d-byte payload does not exceed the server's 4 KiB writer", len(payload))
		}
		if writes != 1 {
			t.Errorf("%d-point response (%d payload bytes): %d writes, want 1", max, len(payload), writes)
		}
		if !bytes.Equal(got, frame.Bytes()) {
			t.Errorf("%d-point response: %d bytes on the wire differ from the %d-byte reference frame", max, len(got), frame.Len())
		}
	}
}
