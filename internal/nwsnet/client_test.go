package nwsnet

import (
	"sync"
	"testing"
	"time"
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
		if err := f.c.Store(f.addr, "k", [][2]float64{{float64(i), 0.5}}); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	rows := []struct {
		name      string
		run       func(t *testing.T, f *fixture)
		wantConns uint64
		wantLen   int
	}{
		{"sequential calls share one connection", func(t *testing.T, f *fixture) {
			for i := 0; i < 50; i++ {
				store(t, f, i)
			}
		}, 1, 50},
		{"a rejection keeps the connection", func(t *testing.T, f *fixture) {
			if err := f.c.Store(f.addr, "", nil); err == nil {
				t.Fatal("invalid store accepted")
			}
			store(t, f, 1)
		}, 1, 1},
		{"redials after a server restart", func(t *testing.T, f *fixture) {
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
		{"Close is not terminal", func(t *testing.T, f *fixture) {
			store(t, f, 1)
			f.c.Close()
			store(t, f, 2)
			f.c.Close()
			if err := f.c.Close(); err != nil {
				t.Fatalf("double Close: %v", err)
			}
		}, 2, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := &fixture{c: NewClient(time.Second), m: NewMemory(0)}
			defer f.c.Close()
			f.srv = NewServer(f.m, nil)
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
				if err := c.Store(addr, key, [][2]float64{{float64(i), 1}}); err != nil {
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
