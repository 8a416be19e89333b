package nwsnet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/resilience"
)

// TestClientConnectionLifecycle pins what a pooled connection survives and
// what it does not: each row runs against a fresh memory server and says how
// many connections the server should have accepted, and how many points it
// should hold, by the end.
func TestClientConnectionLifecycle(t *testing.T) {
	type fixture struct {
		c    *Client
		srv  *Server
		m    *Memory
		addr string
	}
	store := func(t *testing.T, f *fixture, i int) {
		t.Helper()
		if err := f.c.StoreCtx(context.Background(), f.addr, "k", [][2]float64{{float64(i), 0.5}}); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	rows := []struct {
		name      string
		limits    ServerLimits
		run       func(t *testing.T, f *fixture)
		wantConns uint64
		wantLen   int
	}{
		{"sequential calls share one connection", ServerLimits{}, func(t *testing.T, f *fixture) {
			for i := 0; i < 50; i++ {
				store(t, f, i)
			}
		}, 1, 50},
		{"a rejection keeps the connection", ServerLimits{}, func(t *testing.T, f *fixture) {
			if err := f.c.StoreCtx(context.Background(), f.addr, "", nil); err == nil {
				t.Fatal("invalid store accepted")
			}
			store(t, f, 1)
		}, 1, 1},
		{"redials after a server restart", ServerLimits{}, func(t *testing.T, f *fixture) {
			store(t, f, 1)
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			f.srv = NewServer(f.m, nil)
			if _, err := f.srv.Listen(f.addr); err != nil {
				t.Skipf("could not rebind %s: %v", f.addr, err)
			}
			// The parked connection is dead; the call must notice, discard it
			// and succeed on a fresh one within its retry budget.
			store(t, f, 2)
		}, 2, 2},
		{"Close is not terminal", ServerLimits{}, func(t *testing.T, f *fixture) {
			store(t, f, 1)
			f.c.Close()
			store(t, f, 2)
			f.c.Close()
			if err := f.c.Close(); err != nil {
				t.Fatalf("double Close: %v", err)
			}
		}, 2, 2},
		{"a connection the server idle-reaped is replaced without a retry", ServerLimits{IdleTimeout: 100 * time.Millisecond}, func(t *testing.T, f *fixture) {
			shed0 := mServerShed.With(shedIdle).Value()
			retries0 := mClientRetries.With(string(OpStore)).Value()
			store(t, f, 1)
			// Borrow the parked connection to watch it; checking it out and
			// back in dials nothing and spends no attempt.
			pl := f.c.pool(f.addr)
			got, err := pl.Get(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			parked := got.(*MuxConn)
			pl.Put(parked, true)
			// Wait for the server's idle reap, then for the parked
			// connection's reader to see the close.
			waitFor(t, 5*time.Second, "idle reap of the parked connection seen by its reader", func() bool {
				return mServerShed.With(shedIdle).Value() != shed0 && !parked.alive()
			})
			// Checkout discards the dead connection and dials, so the store
			// spends no retry on it.
			store(t, f, 2)
			if got := mClientRetries.With(string(OpStore)).Value() - retries0; got != 0 {
				t.Errorf("nws_client_retries_total{op=\"store\"} moved by %d, want 0", got)
			}
		}, 2, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := &fixture{c: NewClient(time.Second), m: NewMemory(0)}
			defer f.c.Close()
			f.srv = NewServerLimits(f.m, nil, row.limits)
			var err error
			if f.addr, err = f.srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer func() { f.srv.Close() }()
			conns0 := mServerConnsTotal.Value()
			row.run(t, f)
			if got := mServerConnsTotal.Value() - conns0; got != row.wantConns {
				t.Errorf("server accepted %d connections, want %d", got, row.wantConns)
			}
			if got := f.m.Len("k"); got != row.wantLen {
				t.Errorf("stored %d points, want %d", got, row.wantLen)
			}
		})
	}
}

// TestClientCountsLogicalCalls: the client call metrics count logical
// calls. A Client.Store whose first attempt is shed busy is one call, one
// retry and no error; a call made directly on a MuxConn is one call too.
func TestClientCountsLogicalCalls(t *testing.T) {
	var stores atomic.Int64
	mem := NewMemory(0)
	_, addr := startServerLimits(t, handlerFunc(func(req Request) Response {
		if req.Op == OpStore && stores.Add(1) == 1 {
			return busyResp("synthetic shed")
		}
		return mem.Handle(req)
	}), ServerLimits{})
	type counts struct{ calls, errs, retries, observed uint64 }
	read := func(op Op) counts {
		return counts{mClientCalls.With(string(op)).Value(), mClientErrors.With(string(op)).Value(),
			mClientRetries.With(string(op)).Value(), mClientLatency.With(string(op)).Count()}
	}
	delta := func(a, b counts) counts {
		return counts{b.calls - a.calls, b.errs - a.errs, b.retries - a.retries, b.observed - a.observed}
	}

	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	defer c.Close()
	before := read(OpStore)
	if err := c.StoreCtx(context.Background(), addr, "k", [][2]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if got, want := delta(before, read(OpStore)), (counts{calls: 1, retries: 1, observed: 1}); got != want {
		t.Errorf("Client.Store through one busy shed moved calls/errors/retries/latency by %+v, want %+v", got, want)
	}

	mux, err := DialMux(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	before = read(OpPing)
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if got, want := delta(before, read(OpPing)), (counts{calls: 1, observed: 1}); got != want {
		t.Errorf("MuxConn.Do moved calls/errors/retries/latency by %+v, want %+v", got, want)
	}
}

func TestServerHandlesManyConcurrentClients(t *testing.T) {
	m := NewMemory(0)
	addr := startServer(t, m)
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for g := 0; g < 30; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(2 * time.Second)
			key := SeriesKey("stress", string(rune('a'+g)))
			for i := 0; i < 10; i++ {
				if err := c.StoreCtx(context.Background(), addr, key, [][2]float64{{float64(i), 1}}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkClientFetchTail fetches a series' 64-point tail through a Client
// over loopback, one call at a time on one pooled connection. Its allocation
// count covers both ends, because the server runs in the same process.
func BenchmarkClientFetchTail(b *testing.B) {
	mem := NewMemory(0)
	pts := make([][2]float64, 1024)
	for i := range pts {
		pts[i] = [2]float64{10 * float64(i), 0.5}
	}
	mem.Handle(Request{Op: OpStore, Series: "k", Points: pts})
	srv := NewServer(mem, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(5 * time.Second)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := c.FetchCtx(context.Background(), addr, "k", 0, 0, 64); err != nil || len(got) != 64 {
			b.Fatalf("fetched %d points: %v", len(got), err)
		}
	}
}
