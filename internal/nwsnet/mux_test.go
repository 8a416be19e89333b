package nwsnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nwscpu/internal/resilience"
)

// TestMuxPipelinesManyInFlight issues a window of requests without waiting
// and checks every response routes back to its own call, in issue order for
// a single goroutine.
func TestMuxPipelinesManyInFlight(t *testing.T) {
	mem := NewMemory(1000)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	mux, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const n = 200
	calls := make([]*MuxCall, n)
	for i := 0; i < n; i++ {
		calls[i] = mux.Go(Request{Op: OpStore, Series: "k", Points: [][2]float64{{float64(i), 1}}})
	}
	for i, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Pipelined stores on one series applied in issue order: with the
	// monotonic-frontier dedup, out-of-order execution would have dropped
	// points. All n must have landed.
	pts, err := mux.Do(Request{Op: OpFetch, Series: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts.Points) != n {
		t.Fatalf("stored %d points, fetched %d — pipelined execution reordered", n, len(pts.Points))
	}
}

// TestMuxConcurrentCallers hammers one MuxConn from many goroutines,
// checking every call gets its own answer (the group-commit flush must not
// lose or cross wires).
func TestMuxConcurrentCallers(t *testing.T) {
	mem := NewMemory(1000)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	mux, err := DialMux(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := fmt.Sprintf("s%d", w)
			for i := 0; i < per; i++ {
				if _, err := mux.Do(Request{Op: OpStore, Series: series, Points: [][2]float64{{float64(i), 1}}}); err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
			}
			resp, err := mux.Do(Request{Op: OpFetch, Series: series})
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Points) != per {
				errs <- fmt.Errorf("worker %d: %d points, want %d", w, len(resp.Points), per)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxBusyClassification checks a queue shed surfaces on the pipelined
// path exactly as a Client call sees it: an IsBusy, non-terminal error on
// the shed call only.
func TestMuxBusyClassification(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		if req.Op == OpStore {
			<-block
		}
		return Response{}
	})
	srv, addr := startServerLimits(t, h, ServerLimits{MaxInFlight: 1, QueueWait: 50 * time.Millisecond})
	defer srv.Close()

	mux, err := DialMux(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	// Occupy the single handler slot from a separate connection: a binary
	// connection executes its own requests serially, so the blocker must
	// come from elsewhere for the mux's request to reach the shed path.
	blocker := NewClient(5 * time.Second)
	defer blocker.Close()
	blockerDone := make(chan error, 1)
	go func() { blockerDone <- blocker.StoreCtx(context.Background(), addr, "a", [][2]float64{{1, 1}}) }()
	// Wait until the blocker's handler is actually holding the slot.
	deadline := time.Now().Add(2 * time.Second)
	for mServerInFlight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	c2 := mux.Go(Request{Op: OpStore, Series: "b"})
	_, err2 := c2.Wait()
	if err2 == nil || !IsBusy(err2) {
		t.Fatalf("shed call classified %v, want busy", err2)
	}
	close(block)
	if err := <-blockerDone; err != nil {
		t.Fatalf("admitted call failed: %v", err)
	}
	// The connection survives a request-level shed; later calls work.
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatalf("ping after shed: %v", err)
	}
}

// TestMuxMatchesOutOfOrderResponses checks responses are matched by ID, not
// by position: two callers' frames can reach the wire in the other order
// than their calls were queued, and the server then answers the later call
// first.
func TestMuxMatchesOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := io.ReadFull(br, make([]byte, wirePreambleLen)); err != nil {
			return
		}
		var ids []uint64
		var buf []byte
		for len(ids) < 2 {
			payload, _, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			id, _, err := decodeRequestPayload(payload)
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		bw := bufio.NewWriter(nc)
		bw.WriteByte(wireVersionBinary)
		for i := len(ids) - 1; i >= 0; i-- { // newest first
			payload, _ := encodeResponsePayload(nil, ids[i], &Response{OK: true, Names: []string{fmt.Sprint(ids[i])}})
			writeFrame(bw, payload)
		}
		bw.Flush()
		io.Copy(io.Discard, br) // hold the connection until the client closes it
	}()

	m, err := DialMux(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	calls := []*MuxCall{m.Go(Request{Op: OpPing}), m.Go(Request{Op: OpPing})}
	for i, c := range calls {
		resp, err := c.Wait()
		if err != nil || len(resp.Names) != 1 || resp.Names[0] != fmt.Sprint(c.id) {
			t.Fatalf("call %d (ID %d) got %+v, %v", i, c.id, resp, err)
		}
	}
}

// TestMuxConnectionShedFailsAllPending checks the connection-level busy
// (request ID 0, sent by a server past MaxConns) fails every pending call
// with a busy-classified error.
func TestMuxConnectionShedFailsAllPending(t *testing.T) {
	h := handlerFunc(func(Request) Response { return Response{} })
	srv, addr := startServerLimits(t, h, ServerLimits{MaxConns: 1})
	defer srv.Close()

	// Hold the only connection slot.
	holder, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Do(Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	shed, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer shed.Close()
	c1 := shed.Go(Request{Op: OpPing})
	c2 := shed.Go(Request{Op: OpPing})
	for i, c := range []*MuxCall{c1, c2} {
		if _, err := c.Wait(); err == nil || !IsBusy(err) {
			t.Fatalf("pending call %d on shed connection classified %v, want busy", i, err)
		}
	}
}

// TestMuxCloseFailsPending checks Close completes pending calls with
// ErrMuxClosed and later calls fail immediately.
func TestMuxCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		if req.Op == OpStore {
			<-block
		}
		return Response{}
	})
	srv, addr := startServerLimits(t, h, ServerLimits{})
	defer srv.Close()
	// Deferred after the server's Close so it runs before it: Close waits for
	// the handler, which the store may have reached before the mux closed.
	defer close(block)

	mux, err := DialMux(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := mux.Go(Request{Op: OpStore, Series: "a"})
	mux.Close()
	if _, err := c.Wait(); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("pending call after Close: %v, want ErrMuxClosed", err)
	}
	if _, err := mux.Do(Request{Op: OpPing}); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("call on closed mux: %v, want ErrMuxClosed", err)
	}
}

// TestMuxIdleConnectionSurvivesTimeout checks an idle MuxConn (nothing
// pending) is not killed by its own read deadline.
func TestMuxIdleConnectionSurvivesTimeout(t *testing.T) {
	mem := NewMemory(10)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	defer srv.Close()

	mux, err := DialMux(addr, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond) // two timeout laps, idle
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatalf("ping after idle period: %v", err)
	}
}

// TestMuxSlowFirstResponseIsReceiveTimeout: the server buffers its accept
// byte in front of the first response, so a fresh connection whose first
// call is held past the client timeout has negotiated; only the response is
// late. The call fails as a late response on a warm connection does: the
// error names the receive, not the handshake, and stays a retryable timeout.
func TestMuxSlowFirstResponseIsReceiveTimeout(t *testing.T) {
	release := make(chan struct{})
	h := handlerFunc(func(req Request) Response {
		<-release
		return Response{}
	})
	srv, addr := startServerLimits(t, h, ServerLimits{})
	defer srv.Close()
	defer close(release)

	mux, err := DialMux(addr, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	_, err = mux.Do(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 1}}})
	if err == nil {
		t.Fatal("call held past the timeout succeeded")
	}
	if msg := err.Error(); strings.Contains(msg, "negotiate") || !strings.Contains(msg, "receive from "+addr) {
		t.Fatalf("late first response failed with %q, want a receive error from %s", msg, addr)
	}
	if !isTimeout(err) || resilience.IsTerminal(err) {
		t.Fatalf("late first response: timeout %v, terminal %v; want a retryable timeout", isTimeout(err), resilience.IsTerminal(err))
	}
}

// TestMuxWrongAcceptByteIsPermanent: a peer that answers the preamble with
// another wire version refused the handshake, and no retry can change that.
func TestMuxWrongAcceptByteIsPermanent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer func() {
		ln.Close()
		<-done
	}()
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte{wireVersionBinary + 1})
		io.Copy(io.Discard, conn)
	}()

	mux, err := DialMux(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	_, err = mux.Do(Request{Op: OpPing})
	if err == nil || !strings.Contains(err.Error(), "accepted wire version") || !resilience.IsTerminal(err) {
		t.Fatalf("wrong accept byte: %v (terminal %v), want a permanent version refusal", err, resilience.IsTerminal(err))
	}
}
