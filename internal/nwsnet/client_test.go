package nwsnet

import (
	"sync"
	"testing"
	"time"
)

// TestClientConnectionLifecycle pins what a pooled connection survives and
// what it does not: each row runs against a fresh memory server and reports
// how many connections the server should have accepted by the end.
func TestClientConnectionLifecycle(t *testing.T) {
	point := func(i int) [][2]float64 { return [][2]float64{{float64(i), 0.5}} }
	rows := []struct {
		name      string
		run       func(t *testing.T, c *Client, srv *Server, m *Memory, addr string) *Server
		wantConns uint64
		wantLen   int
	}{
		{"sequential calls share one connection", func(t *testing.T, c *Client, srv *Server, m *Memory, addr string) *Server {
			for i := 0; i < 50; i++ {
				if err := c.Store(addr, "k", point(i)); err != nil {
					t.Fatal(err)
				}
			}
			return srv
		}, 1, 50},
		{"a rejection keeps the connection", func(t *testing.T, c *Client, srv *Server, m *Memory, addr string) *Server {
			if err := c.Store(addr, "", nil); err == nil {
				t.Fatal("invalid store accepted")
			}
			if err := c.Store(addr, "k", point(1)); err != nil {
				t.Fatalf("connection poisoned by a protocol error: %v", err)
			}
			return srv
		}, 1, 1},
		{"redials after a server restart", func(t *testing.T, c *Client, srv *Server, m *Memory, addr string) *Server {
			if err := c.Store(addr, "k", point(1)); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv2 := NewServer(m, nil)
			if _, err := srv2.Listen(addr); err != nil {
				t.Skipf("could not rebind %s: %v", addr, err)
			}
			// The parked connection is dead; the call must notice, discard it
			// and succeed on a fresh one within its retry budget.
			if err := c.Store(addr, "k", point(2)); err != nil {
				t.Fatalf("redial failed: %v", err)
			}
			return srv2
		}, 2, 2},
		{"Close is not terminal", func(t *testing.T, c *Client, srv *Server, m *Memory, addr string) *Server {
			if err := c.Store(addr, "k", point(1)); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if err := c.Store(addr, "k", point(2)); err != nil {
				t.Fatalf("reuse after Close failed: %v", err)
			}
			c.Close()
			if err := c.Close(); err != nil {
				t.Fatalf("double Close: %v", err)
			}
			return srv
		}, 2, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := NewMemory(0)
			srv := NewServer(m, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c := NewClient(time.Second)
			defer c.Close()
			conns0 := mServerConnsTotal.Value()
			srv = row.run(t, c, srv, m, addr)
			defer srv.Close()
			if got := mServerConnsTotal.Value() - conns0; got != row.wantConns {
				t.Errorf("server accepted %d connections, want %d", got, row.wantConns)
			}
			if got := m.Len("k"); got != row.wantLen {
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
