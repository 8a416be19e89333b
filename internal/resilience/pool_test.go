package resilience

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeConn counts closes; the pool only needs io.Closer.
type fakeConn struct {
	id     int
	closed atomic.Bool
}

func (f *fakeConn) Close() error {
	f.closed.Store(true)
	return nil
}

// newFakeDialer returns a Dial func minting numbered fakeConns.
func newFakeDialer(dials *atomic.Int64) func(context.Context) (io.Closer, error) {
	return func(context.Context) (io.Closer, error) {
		n := dials.Add(1)
		return &fakeConn{id: int(n)}, nil
	}
}

// stats reports p's idle and checked-out connection counts.
func stats(p *Pool) (idle, active int) {
	p.lock()
	defer p.unlock()
	return len(p.idle), p.active
}

func TestPoolReusesConnections(t *testing.T) {
	var dials atomic.Int64
	p := NewPool(newFakeDialer(&dials), nil)
	ctx := context.Background()

	c1, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1, true)
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("healthy parked connection not reused")
	}
	if dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dials.Load())
	}
	p.Put(c2, false) // unhealthy: discarded
	if !c2.(*fakeConn).closed.Load() {
		t.Fatal("unhealthy connection not closed")
	}
	c3, _ := p.Get(ctx)
	if c3 == c2 || dials.Load() != 2 {
		t.Fatalf("unhealthy connection reused (dials = %d)", dials.Load())
	}
}

func TestPoolMaxIdle(t *testing.T) {
	var dials atomic.Int64
	p := NewPool(newFakeDialer(&dials), nil)
	ctx := context.Background()
	c1, _ := p.Get(ctx)
	c2, _ := p.Get(ctx)
	c3, _ := p.Get(ctx)
	p.Put(c1, true)
	p.Put(c2, true)
	p.Put(c3, true) // surplus: closed, not parked
	if idle, _ := stats(p); idle != maxIdle {
		t.Fatalf("idle = %d, want %d", idle, maxIdle)
	}
	if !c3.(*fakeConn).closed.Load() {
		t.Fatal("surplus connection not closed")
	}
}

func TestPoolIdleReap(t *testing.T) {
	var dials atomic.Int64
	now := time.Unix(0, 0)
	p := NewPool(newFakeDialer(&dials), nil)
	p.now = func() time.Time { return now }
	ctx := context.Background()
	c1, _ := p.Get(ctx)
	p.Put(c1, true)

	now = now.Add(idleTimeout / 2)
	c2, _ := p.Get(ctx)
	if c2 != c1 {
		t.Fatal("connection parked for less than the idle timeout not reused")
	}
	p.Put(c2, true)

	now = now.Add(idleTimeout + time.Second)
	c3, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("expired idle connection handed out")
	}
	if !c1.(*fakeConn).closed.Load() {
		t.Fatal("expired idle connection not closed")
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2", dials.Load())
	}
}

func TestPoolCloseAndStats(t *testing.T) {
	var dials atomic.Int64
	var lastIdle, lastActive atomic.Int64
	p := NewPool(newFakeDialer(&dials), func(idle, active int) {
		lastIdle.Store(int64(idle))
		lastActive.Store(int64(active))
	})
	ctx := context.Background()
	c1, _ := p.Get(ctx)
	c2, _ := p.Get(ctx)
	if idle, active := stats(p); idle != 0 || active != 2 {
		t.Fatalf("Stats = (%d, %d), want (0, 2)", idle, active)
	}
	if lastActive.Load() != 2 {
		t.Fatalf("OnChange active = %d, want 2", lastActive.Load())
	}
	p.Put(c1, true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !c1.(*fakeConn).closed.Load() {
		t.Fatal("parked connection not closed on Close")
	}
	if _, err := p.Get(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	p.Put(c2, true) // returning after Close must close, not park
	if !c2.(*fakeConn).closed.Load() {
		t.Fatal("connection returned after Close not closed")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestPoolConcurrentGets(t *testing.T) {
	var dials atomic.Int64
	p := NewPool(newFakeDialer(&dials), nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				p.Put(c, i%5 != 0)
			}
		}()
	}
	wg.Wait()
	idle, active := stats(p)
	if active != 0 {
		t.Fatalf("active = %d after all Puts", active)
	}
	if idle > maxIdle {
		t.Fatalf("idle = %d exceeds maxIdle", idle)
	}
}
